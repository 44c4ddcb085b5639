// perfbench — end-to-end and per-layer benchmark of the verifier.
//
//   perfbench --workload table2|gen|serve --seed N --seconds S --trace 0|1
//
// Every workload is a set of (S, T, poc) pairs and every run measures
// that set the way users meet it (README.md has the full contract):
//
//   setup      build/generate the pairs, start a daemon on a fresh disk
//              tier; repeated kSetupReps times, median reported.
//   cycle      (repeated until --seconds is used up)
//     fill     in-process core::Server, one closed-loop client asking for
//              each distinct pair once (all misses: pipeline + disk Put);
//              kFillsPerCycle daemons, each on a fresh disk tier
//     serial   closed loop, one VerifyPair in flight, in index order
//     hits     open loop over the filled pairs at the reference rate, at
//              most nproc requests in flight, latency timed from each
//              request's due time
//     parallel the same pairs through one VerifyCorpus call, 2 jobs
//     hits     a second window
//     capacity nproc clients back to back
//     ladder   (traced run) rising fixed rates, for max_hit_rps
//   tail       (untraced run) more fills by fresh daemons in the time the
//              last cycle leaves unused
//
// Every verdict is checked (Table II types, generator labels) and every
// report must be byte-identical across passes, between 1 and 2 jobs, and
// between the daemon and the batch run. With --trace 1 the same cycles
// run with a support::Tracer attached and the per-layer metrics are
// printed instead of the end-to-end ones. The last stdout line is the
// JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/artifact_disk.h"
#include "core/artifact_store.h"
#include "core/journal.h"
#include "core/octopocs.h"
#include "core/parallel_verify.h"
#include "core/report_io.h"
#include "core/server.h"
#include "corpus/pairs.h"
#include "gen/generator.h"
#include "support/rng.h"
#include "support/trace.h"

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#error "perfbench reports timings only from optimized, unsanitized builds"
#endif

namespace {

using namespace octopocs;
using Clock = std::chrono::steady_clock;

// -- Workload constants ------------------------------------------------------

/// The generator seed whose taxonomy mix every generated pair set
/// reproduces (see SelectOrdinals), and the default --seed.
constexpr std::uint64_t kPinnedSeed = 1;
constexpr int kGenPairs = 300;       // gen: corpus size
constexpr int kServeSlice = 30;      // serve: generated pairs beside Table II
constexpr unsigned kParallelJobs = 2;
constexpr int kSetupReps = 15;
/// Cold fills per cycle, each by its own daemon on a fresh disk tier; the
/// time the last cycle leaves unused goes to more of them. cold_s sums
/// per-pair medians over all fills of a run: the host's speed drifts by
/// 10-20% within seconds, and pair 14 alone is most of a table2 fill, so
/// the median needs as many fills as the run can hold.
constexpr int kFillsPerCycle = 2;
constexpr double kDecidedLimitMs = 50;

/// Hit phase. The reference step is an open loop well below capacity;
/// the capacity step is a closed loop of nproc clients back to back.
/// The ladder (traced run only) climbs from 2x the reference rate by
/// 2^(1/4). A ladder step passes when either of two attempts meets the
/// latency limit without a growing backlog: one host stall alone can
/// push a 1000-sample p99 past the limit. The ladder ends after two
/// failed steps in a row; max_hit_rps is the highest passing rate.
constexpr double kRefRate = 1000;
constexpr int kRefRequests = 1000;  // per window
constexpr int kCapacityRequests = 3000;
constexpr int kStepRequests = 1000;
constexpr double kLatencyLimitMs = 50;
/// The backlog grows once the median request leaves later than this.
constexpr double kMaxLateP50Ms = 1;
constexpr int kMaxLadderSteps = 16;

/// Span-sum tolerance: phase spans must cover the VerifyPair wall time
/// up to this share plus a fixed allowance for pipeline construction.
constexpr double kSpanSumRelTol = 0.05;
constexpr double kSpanSumAbsTolMs = 0.5;

const char* const kPhaseSpans[] = {"crash_primitive", "guiding_input",
                                   "combine", "fuzz_fallback",
                                   "concrete_verify"};

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
}

/// User plus system CPU time of the whole process, in microseconds.
double ProcessCpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& t) { return t.tv_sec * 1e6 + t.tv_usec; };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

/// Times one call into the program and, when tracing, brackets it with a
/// benchmark span of the same name.
class Timed {
 public:
  Timed(support::Tracer* tracer, const char* name, std::int64_t arg = 0)
      : tracer_(tracer), name_(name), t0_(Clock::now()) {
    if (tracer_ != nullptr) tracer_->Begin(name_, arg);
  }
  double StopMs() {
    const double ms = MsSince(t0_);
    if (tracer_ != nullptr) tracer_->End(name_);
    return ms;
  }

 private:
  support::Tracer* tracer_;
  const char* name_;
  Clock::time_point t0_;
};

// -- Pair sets ---------------------------------------------------------------

struct Item {
  corpus::Pair pair;
  bool generated = false;
  core::Verdict label = core::Verdict::kTriggered;  // generated pairs
  std::string taxonomy;                              // generated pairs
};

struct Workload {
  std::string name;
  std::uint64_t gen_seed = 0;      // generator seed of the generated pairs
  bool paper = false;              // includes the 15 Table II pairs
  std::vector<int> ordinals;       // generated ordinals, in order
  core::PipelineOptions options;
};

std::string TaxonomyKey(const gen::GeneratedPair& g) {
  return g.vuln_class + "/" + g.mutation;
}

/// Ordinals of generator seed `seed` whose (vuln class, mutation) mix
/// equals that of ordinals [0, count) of kPinnedSeed. The generator draws
/// the vuln class at random, so plain prefixes of different seeds carry
/// different shares of the expensive classes (fuel-loop: 28..55 of 300
/// over seeds 1..10); fixing the mix keeps runs on different seeds
/// comparable while every pair is still fresh. For kPinnedSeed the
/// result is exactly [0, count).
std::vector<int> SelectOrdinals(std::uint64_t seed, int count) {
  std::map<std::string, int> quota;
  for (int o = 0; o < count; ++o) {
    ++quota[TaxonomyKey(gen::BuildGeneratedPair(kPinnedSeed, o))];
  }
  std::vector<int> picked;
  for (int o = 0; static_cast<int>(picked.size()) < count; ++o) {
    if (o > 100 * count) {
      throw std::runtime_error("seed " + std::to_string(seed) +
                               " cannot fill the pinned taxonomy mix");
    }
    auto it = quota.find(TaxonomyKey(gen::BuildGeneratedPair(seed, o)));
    if (it != quota.end() && it->second > 0) {
      --it->second;
      picked.push_back(o);
    }
  }
  return picked;
}

/// Soak rung settings: the configuration the generator's labels are
/// certified against (fuzz fallback on, fuzz seed 1, 20k execs).
core::PipelineOptions SoakRung() {
  core::PipelineOptions o;
  o.fuzz_fallback = true;
  o.fuzz_seed = 1;
  o.fuzz_execs = 20000;
  return o;
}

struct SetupTimes {
  double corpus_ms = 0;   // BuildCorpus
  double gen_ms = 0;      // BuildGeneratedPair over the workload's ordinals
  double server_ms = 0;   // Server::Start incl. disk open
};

std::vector<Item> BuildItems(const Workload& w, support::Tracer* tracer,
                             SetupTimes* times) {
  std::vector<Item> items;
  if (w.paper) {
    Timed t(tracer, "bench.build_corpus");
    for (corpus::Pair& p : corpus::BuildCorpus()) {
      items.push_back({std::move(p), false, core::Verdict::kTriggered, ""});
    }
    times->corpus_ms = t.StopMs();
  }
  if (!w.ordinals.empty()) {
    Timed t(tracer, "bench.generate_corpus");
    for (const int o : w.ordinals) {
      gen::GeneratedPair g = gen::BuildGeneratedPair(w.gen_seed, o);
      std::string taxonomy = g.skeleton + "/" + TaxonomyKey(g);
      items.push_back(
          {std::move(g.pair), true, g.expected_verdict, std::move(taxonomy)});
    }
    times->gen_ms = t.StopMs();
  }
  return items;
}

// -- Correctness -------------------------------------------------------------

/// Report bytes with wall-clock timings removed: what two runs of one pair
/// must agree on exactly.
std::string Canonical(core::VerificationReport r) {
  r.timings = {};
  return core::SerializeReport(r);
}

/// Wrong verdict, timeout or contained fault: the operation failed.
bool Decided(const Item& item, const core::VerificationReport& r) {
  if (r.deadline_expired || r.exception_contained) return false;
  if (item.generated) return r.verdict == item.label;
  return core::ResultTypeName(r.type) ==
         corpus::ExpectedResultName(item.pair.expected);
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // first few, printed on stderr

  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (problems.size() < 20) problems.push_back(what);
  }
};

// -- Trace analysis ----------------------------------------------------------

struct TraceSummary {
  std::map<std::string, std::vector<double>> span_ms;      // by name
  std::map<std::string, std::vector<std::int64_t>> counters;
  /// Per bench.verify_pair span: (its wall, Σ phase spans inside it).
  std::vector<std::pair<double, double>> pair_vs_phases;
  std::uint64_t end_seq = 0;  // one past the last event summarized

  std::size_t SpanCount(const std::string& name) const {
    auto it = span_ms.find(name);
    return it == span_ms.end() ? 0 : it->second.size();
  }

  double SpanSum(const std::string& name) const {
    auto it = span_ms.find(name);
    return it == span_ms.end() ? 0 : Sum(it->second);
  }
  std::int64_t CounterSum(const std::string& prefix,
                          const std::string& suffix = "") const {
    std::int64_t s = 0;
    for (const auto& [name, vals] : counters) {
      if (name.rfind(prefix, 0) != 0) continue;
      if (name.size() < suffix.size() ||
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
        continue;
      for (const std::int64_t v : vals) s += v;
    }
    return s;
  }
};

/// Summarizes the events with seq >= min_seq.
TraceSummary Summarize(const support::Tracer& tracer,
                       std::uint64_t min_seq = 0) {
  struct Open {
    std::string name;
    std::uint64_t ts = 0;
    double phase_ms = 0;
  };
  TraceSummary out;
  std::map<std::uint32_t, std::vector<Open>> stacks;
  out.end_seq = min_seq;
  for (const support::TraceEvent& e : tracer.Snapshot()) {
    if (e.seq < min_seq) continue;
    out.end_seq = std::max(out.end_seq, e.seq + 1);
    if (e.kind == support::TraceEventKind::kCounter) {
      out.counters[e.name].push_back(e.value);
      continue;
    }
    std::vector<Open>& stack = stacks[e.tid];
    if (e.kind == support::TraceEventKind::kBegin) {
      stack.push_back({e.name, e.ts_ns, 0});
      continue;
    }
    auto it = std::find_if(stack.rbegin(), stack.rend(),
                           [&](const Open& o) { return o.name == e.name; });
    if (it == stack.rend()) continue;
    const Open open = *it;
    stack.erase(std::next(it).base(), stack.end());
    const double ms = static_cast<double>(e.ts_ns - open.ts) / 1e6;
    out.span_ms[open.name].push_back(ms);
    const bool phase = std::any_of(
        std::begin(kPhaseSpans), std::end(kPhaseSpans),
        [&](const char* p) { return open.name == p; });
    if (phase) {
      for (auto up = stack.rbegin(); up != stack.rend(); ++up) {
        if (up->name == "bench.verify_pair") {
          up->phase_ms += ms;
          break;
        }
      }
    } else if (open.name == "bench.verify_pair") {
      out.pair_vs_phases.emplace_back(ms, open.phase_ms);
    }
  }
  return out;
}

/// True when the phase spans of one pair account for its VerifyPair wall
/// time: what remains is pipeline construction and span bookkeeping.
bool SpansCover(const std::pair<double, double>& wall_vs_phases) {
  const auto [wall, phases] = wall_vs_phases;
  const double gap = wall - phases;
  return gap >= 0 && gap <= kSpanSumRelTol * wall + kSpanSumAbsTolMs;
}

// -- One cycle ---------------------------------------------------------------

struct PassResult {
  double wall_s = 0;
  std::vector<double> pair_ms;  // per item, index order (serial pass)
  std::vector<core::VerificationReport> reports;
  std::vector<std::string> canonical;
};

/// Verifies items [begin, end) one at a time, appending to `out`.
void SerialPass(const std::vector<Item>& items, std::size_t begin,
                std::size_t end, const core::PipelineOptions& options,
                support::Tracer* tracer, PassResult* out) {
  core::PipelineOptions opts = options;
  opts.tracer = tracer;
  const auto t0 = Clock::now();
  for (std::size_t i = begin; i < end; ++i) {
    Timed t(tracer, "bench.verify_pair", items[i].pair.idx);
    core::VerificationReport r = core::VerifyPair(items[i].pair, opts);
    out->pair_ms.push_back(t.StopMs());
    out->canonical.push_back(Canonical(r));
    out->reports.push_back(std::move(r));
  }
  out->wall_s += MsSince(t0) / 1e3;
}

PassResult ParallelPass(const std::vector<Item>& items,
                        const core::PipelineOptions& options,
                        support::Tracer* tracer) {
  std::vector<corpus::Pair> pairs;
  for (const Item& item : items) pairs.push_back(item.pair);
  core::PipelineOptions opts = options;
  opts.tracer = tracer;
  core::CorpusRunConfig config;
  config.jobs = kParallelJobs;
  PassResult out;
  Timed t(tracer, "bench.verify_corpus");
  out.reports = core::VerifyCorpus(pairs, opts, config);
  out.wall_s = t.StopMs() / 1e3;
  for (const core::VerificationReport& r : out.reports) {
    out.canonical.push_back(Canonical(r));
  }
  return out;
}

core::ServeRequest RequestFor(const Workload& w, const Item& item) {
  core::ServeRequest req;
  req.pair = item.pair.idx;
  if (item.generated) req.gen_seed = w.gen_seed;
  return req;
}

struct HitStep {
  double rate = 0;
  int requests = 0;
  int failed = 0;
  double p50_ms = 0, p99_ms = 0, late_p50_ms = 0, late_p99_ms = 0;
  std::vector<double> rtt_ms;  // send to response, per request
  std::vector<double> lat_ms;  // due to response, per request
  double cpu_us = 0;           // process CPU per request (client + daemon)
  bool pass = false;
};

/// Open loop: request i is due at i / rate after the step starts and is
/// sent by the first of nproc client threads free at that time. With
/// rate 0 the clients send back to back (closed loop) and `rate` is set
/// to the completed requests per second.
HitStep RunHitStep(const std::string& socket, const Workload& w,
                   const std::vector<Item>& items,
                   const std::vector<std::string>& served,
                   Rng& rng, double rate, int n,
                   support::Tracer* tracer, Tally* tally) {
  std::vector<std::size_t> which(n);
  for (std::size_t& x : which) x = rng.Below(items.size());
  std::vector<core::ClientResult> results(n);
  std::vector<double> lat(n), late(n), rtt(n);
  std::atomic<int> next{0};
  const unsigned clients = std::max(1u, std::thread::hardware_concurrency());
  const double cpu0 = ProcessCpuUs();
  const auto t0 = Clock::now();
  auto client = [&] {
    for (int i = next++; i < n; i = next++) {
      const auto due =
          rate > 0 ? t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(i / rate))
                   : Clock::now();
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      Timed t(tracer, "bench.send_request", i);
      results[i] =
          core::SendRequest(socket, RequestFor(w, items[which[i]]), 10'000);
      rtt[i] = t.StopMs();
      const auto done = Clock::now();
      lat[i] = std::chrono::duration<double, std::milli>(done - due).count();
      late[i] = std::chrono::duration<double, std::milli>(sent - due).count();
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();

  HitStep step;
  step.rate = rate > 0 ? rate : n / (MsSince(t0) / 1e3);
  step.cpu_us = (ProcessCpuUs() - cpu0) / n;
  step.requests = n;
  for (int i = 0; i < n; ++i) {
    const core::ClientResult& r = results[i];
    const bool ok = r.ok && Canonical(r.report) == served[which[i]];
    if (!ok) ++step.failed;
    tally->Op(ok, "hit pair " + std::to_string(items[which[i]].pair.idx) +
                      ": " + (r.ok ? "report differs from the fill's"
                                   : r.error.code + r.transport_error));
  }
  step.p50_ms = Percentile(lat, 0.50);
  step.p99_ms = Percentile(lat, 0.99);
  step.late_p50_ms = Percentile(late, 0.50);
  step.late_p99_ms = Percentile(late, 0.99);
  step.rtt_ms = std::move(rtt);
  step.lat_ms = std::move(lat);
  step.pass = step.failed == 0 && step.p99_ms <= kLatencyLimitMs &&
              step.late_p50_ms <= kMaxLateP50Ms;
  return step;
}

/// The served-report key, derived the way core::Server derives it, so
/// the hit path can be replayed against the daemon's disk tier.
core::ArtifactKey ServedKey(const corpus::Pair& pair,
                            const core::PipelineOptions& options) {
  core::ArtifactHasher h;
  h.Program(pair.s).Program(pair.t);
  for (const std::string& name : pair.shared_functions) h.Str(name);
  for (const auto& [s_name, t_name] : pair.t_names) h.Str(s_name).Str(t_name);
  h.Bytes(pair.poc.data(), pair.poc.size());
  h.Str(core::CorpusOptionsFingerprint(options, false, 0, 0, false, 0));
  return h.Finish("served-report");
}

/// Per-layer costs of one hit, replayed from outside the daemon.
struct Replay {
  std::vector<double> build_pair_us, load_pair_us, key_us, get_us,
      parse_us, serialize_us, put_ms;
};

void ReplayHitPath(const std::string& disk_dir, const std::string& put_dir,
                   const Workload& w, const std::vector<Item>& items,
                   const std::vector<std::string>& batch_canonical,
                   support::Tracer* tracer, Replay* out, Tally* tally) {
  std::string error;
  auto disk = core::DiskArtifactStore::Open(disk_dir, &error);
  auto fresh = core::DiskArtifactStore::Open(put_dir, &error);
  if (disk == nullptr || fresh == nullptr) {
    tally->Op(false, "replay: cannot open disk tier: " + error);
    return;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    corpus::Pair pair;
    {
      Timed t(tracer, item.generated ? "bench.load_generated_pair"
                                     : "bench.build_pair",
              item.pair.idx);
      pair = item.generated ? gen::LoadGeneratedPair(w.gen_seed, item.pair.idx)
                            : corpus::BuildPair(item.pair.idx);
      (item.generated ? out->load_pair_us : out->build_pair_us)
          .push_back(t.StopMs() * 1e3);
    }
    Timed tk(tracer, "bench.hash_key");
    const core::ArtifactKey key = ServedKey(pair, w.options);
    out->key_us.push_back(tk.StopMs() * 1e3);
    Timed tg(tracer, "bench.disk_get");
    std::optional<Bytes> bytes = disk->Get(key);
    out->get_us.push_back(tg.StopMs() * 1e3);
    core::VerificationReport report;
    bool parsed = false;
    if (bytes) {
      std::string perr;
      Timed tp(tracer, "bench.parse_report");
      parsed = core::ParseReport(
          std::string_view(reinterpret_cast<const char*>(bytes->data()),
                           bytes->size()),
          &report, &perr);
      out->parse_us.push_back(tp.StopMs() * 1e3);
    }
    const bool ok = parsed && Canonical(report) == batch_canonical[i];
    tally->Op(ok, "replay pair " + std::to_string(item.pair.idx) +
                      (bytes ? " report differs" : " missing from disk"));
    if (!ok) continue;
    Timed ts(tracer, "bench.serialize_report");
    const std::string json = core::SerializeReport(report);
    out->serialize_us.push_back(ts.StopMs() * 1e3);
    Timed tp(tracer, "bench.disk_put");
    fresh->Put(key, ByteView(reinterpret_cast<const std::uint8_t*>(json.data()),
                             json.size()));
    out->put_ms.push_back(tp.StopMs());
  }
}

struct Cycle {
  PassResult serial, parallel;
  double untraced_serial_s = 0;  // trace mode: same pass without tracer
  double cold_s = 0;  // wall time of the first fill
  std::vector<std::vector<double>> fill_ms;  // [fill][pair] request latency
  std::vector<HitStep> ref;  // reference-rate windows
  HitStep capacity;
  std::vector<HitStep> ladder;  // traced run only
  double max_hit_rps = 0;
  double rss_mb = 0;  // process peak resident set when the cycle ended
  TraceSummary serial_trace, fill_trace, ref_trace;
  bool spans_ok = true;  // every pair's phase spans cover its wall time
  core::ServeStats serve_stats;
  Replay replay;
};

std::unique_ptr<core::Server> StartServer(const Workload& w,
                                          const std::string& tag,
                                          support::Tracer* tracer,
                                          double* start_ms) {
  core::ServeOptions so;
  so.socket_path = "s-" + tag + ".sock";
  so.cache_dir = "disk-" + tag;
  std::filesystem::remove_all(so.cache_dir);
  so.pipeline = w.options;
  so.tracer = tracer;
  auto server = std::make_unique<core::Server>(so);
  std::string error;
  Timed t(tracer, "bench.server_start");
  if (!server->Start(&error)) {
    throw std::runtime_error("server start failed: " + error);
  }
  if (start_ms != nullptr) *start_ms = t.StopMs();
  return server;
}

/// One closed-loop client asking the daemon at `socket` for each pair once,
/// in index order. Returns each request's latency in ms.
std::vector<double> Fill(const std::string& socket, const Workload& w,
                         const std::vector<Item>& items,
                         support::Tracer* tracer,
                         std::vector<core::ClientResult>* results) {
  std::vector<double> ms;
  for (const Item& item : items) {
    Timed t(tracer, "bench.send_request", item.pair.idx);
    results->push_back(
        core::SendRequest(socket, RequestFor(w, item), 120'000));
    ms.push_back(t.StopMs());
  }
  return ms;
}

/// An untraced fill by a fresh daemon of its own, stopped afterwards. Its
/// reports must equal `served`.
std::vector<double> ExtraFill(const Workload& w,
                              const std::vector<Item>& items,
                              const std::string& tag,
                              const std::vector<std::string>& served,
                              Tally* tally) {
  std::unique_ptr<core::Server> daemon =
      StartServer(w, tag, nullptr, nullptr);
  std::vector<core::ClientResult> again;
  std::vector<double> ms =
      Fill("s-" + tag + ".sock", w, items, nullptr, &again);
  daemon->Drain();
  daemon.reset();
  std::filesystem::remove_all("disk-" + tag);
  for (std::size_t i = 0; i < items.size(); ++i) {
    tally->Op(again[i].ok && Canonical(again[i].report) == served[i],
              "fill " + tag + " pair " + std::to_string(items[i].pair.idx) +
                  ": served report differs from the batch report");
  }
  return ms;
}

Cycle RunCycle(const Workload& w, const std::vector<Item>& items, int index,
               bool trace, Rng& rng, Tally* tally) {
  Cycle c;
  std::unique_ptr<support::Tracer> tracer;
  auto fresh_tracer = [&]() -> support::Tracer* {
    if (!trace) return nullptr;
    tracer = std::make_unique<support::Tracer>();
    return tracer.get();
  };

  // Daemon first: the cold fill, all misses. The daemon keeps its tracer
  // until it is destroyed, so that tracer outlives it.
  const std::string tag = std::to_string(index);
  std::unique_ptr<support::Tracer> serve_tracer;
  if (trace) serve_tracer = std::make_unique<support::Tracer>();
  std::unique_ptr<core::Server> server =
      StartServer(w, tag, serve_tracer.get(), nullptr);
  const std::string socket = "s-" + tag + ".sock";
  std::vector<core::ClientResult> filled;
  const auto fill0 = Clock::now();
  c.fill_ms.push_back(Fill(socket, w, items, serve_tracer.get(), &filled));
  c.cold_s = MsSince(fill0) / 1e3;
  if (trace) c.fill_trace = Summarize(*serve_tracer);
  std::vector<std::string> served(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (filled[i].ok) served[i] = Canonical(filled[i].report);
  }

  // Warm hits at the reference rate, in two windows: after the serial
  // pass and after the 2-job pass (the daemon idles during both). Only
  // the first window is traced.
  auto hit_window = [&] {
    const bool traced = trace && c.ref.empty();
    c.ref.push_back(RunHitStep(socket, w, items, served, rng, kRefRate,
                               kRefRequests,
                               traced ? serve_tracer.get() : nullptr, tally));
    if (!traced) return;
    // The daemon closes a request span just after answering it.
    for (int wait = 0; wait < 100; ++wait) {
      c.ref_trace = Summarize(*serve_tracer, c.fill_trace.end_seq);
      if (c.ref_trace.SpanCount("request") >= c.ref[0].rtt_ms.size()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };

  // Serial, closed loop, then the first hit window.
  if (trace) {
    PassResult untraced;
    SerialPass(items, 0, items.size(), w.options, nullptr, &untraced);
    c.untraced_serial_s = untraced.wall_s;
  }
  SerialPass(items, 0, items.size(), w.options, fresh_tracer(), &c.serial);
  hit_window();
  if (trace) {
    c.serial_trace = Summarize(*tracer);
    const auto& spans = c.serial_trace.pair_vs_phases;
    c.spans_ok = spans.size() == items.size();
    for (std::size_t i = 0; c.spans_ok && i < items.size(); ++i) {
      // A host stall between two phases opens a gap once; a hole in the
      // phase accounting opens it every time, so only a repeated gap fails.
      bool ok = SpansCover(spans[i]);
      for (int retry = 0; !ok && retry < 2; ++retry) {
        PassResult again;
        SerialPass(items, i, i + 1, w.options, fresh_tracer(), &again);
        const TraceSummary summary = Summarize(*tracer);
        ok = summary.pair_vs_phases.size() == 1 &&
             SpansCover(summary.pair_vs_phases[0]);
      }
      c.spans_ok = ok;
    }
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    const core::VerificationReport& r = c.serial.reports[i];
    const std::string idx = std::to_string(items[i].pair.idx);
    tally->Op(Decided(items[i], r),
              "serial pair " + idx + ": " +
                  std::string(core::VerdictName(r.verdict)) + " " + r.detail);
    tally->Op(filled[i].ok && served[i] == c.serial.canonical[i],
              "fill pair " + idx + ": " +
                  (filled[i].ok ? "served report differs from batch"
                                : filled[i].error.code +
                                      filled[i].transport_error));
  }

  // Same pairs, 2 jobs.
  c.parallel = ParallelPass(items, w.options, fresh_tracer());
  for (std::size_t i = 0; i < items.size(); ++i) {
    tally->Op(c.parallel.canonical[i] == c.serial.canonical[i],
              "pair " + std::to_string(items[i].pair.idx) +
                  ": 2-job report differs from serial");
  }
  hit_window();
  c.capacity = RunHitStep(socket, w, items, served, rng, 0,
                          kCapacityRequests, nullptr, tally);
  if (trace) {
    c.max_hit_rps =
        std::all_of(c.ref.begin(), c.ref.end(),
                    [](const HitStep& h) { return h.pass; })
            ? kRefRate
            : 0;
    for (int step = 0, misses = 0; step < kMaxLadderSteps && misses < 2;
         ++step) {
      const double rate = 2 * kRefRate * std::pow(2.0, step / 4.0);
      bool pass = false;
      for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
        HitStep h = RunHitStep(socket, w, items, served, rng, rate,
                               kStepRequests, nullptr, tally);
        pass = h.pass;
        c.ladder.push_back(std::move(h));
      }
      misses = pass ? 0 : misses + 1;
      if (pass) c.max_hit_rps = rate;
    }
  }
  server->Drain();
  c.serve_stats = server->stats();
  server.reset();

  if (trace) {
    ReplayHitPath("disk-" + tag, "put-" + tag, w, items, c.serial.canonical,
                  fresh_tracer(), &c.replay, tally);
  }
  std::filesystem::remove_all("disk-" + tag);
  std::filesystem::remove_all("put-" + tag);
  c.rss_mb = PeakRssMb();
  // The other fills run after the peak resident set is taken, once the
  // first daemon's threads have exited, so their threads reuse its malloc
  // arenas.
  for (int f = 1; f < kFillsPerCycle; ++f) {
    c.fill_ms.push_back(ExtraFill(w, items, tag + "-" + std::to_string(f),
                                  served, tally));
  }
  return c;
}

// -- Reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

double MedianOver(const std::vector<Cycle>& cycles,
                  const std::function<double(const Cycle&)>& f) {
  std::vector<double> v;
  for (const Cycle& c : cycles) v.push_back(f(c));
  return Median(v);
}


/// Reference-step latencies pooled over the cycles, so one quiet or
/// stalled stretch of the host weighs as little as its share of time.
std::vector<double> RefLatencies(const std::vector<Cycle>& cycles) {
  std::vector<double> all;
  for (const Cycle& c : cycles) {
    for (const HitStep& h : c.ref) {
      all.insert(all.end(), h.lat_ms.begin(), h.lat_ms.end());
    }
  }
  return all;
}

std::vector<double> RefCpuUs(const std::vector<Cycle>& cycles) {
  std::vector<double> all;
  for (const Cycle& c : cycles) {
    for (const HitStep& h : c.ref) all.push_back(h.cpu_us);
  }
  return all;
}

/// Sum over the pairs of each pair's median fill latency over every fill
/// of the run, in seconds.
double ColdSeconds(const std::vector<Item>& items,
                   const std::vector<Cycle>& cycles) {
  double sum_ms = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::vector<double> ms;
    for (const Cycle& c : cycles) {
      for (const std::vector<double>& f : c.fill_ms) ms.push_back(f[i]);
    }
    sum_ms += Median(ms);
  }
  return sum_ms / 1e3;
}

/// Median serial wall time of each pair over the cycles, index order.
std::vector<double> PairMedians(const std::vector<Item>& items,
                                const std::vector<Cycle>& cycles) {
  std::vector<double> out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    out.push_back(MedianOver(
        cycles, [&](const Cycle& c) { return c.serial.pair_ms[i]; }));
  }
  return out;
}

std::vector<Metric> EndToEnd(const std::vector<Item>& items,
                             const std::vector<Cycle>& cycles, double setup_s) {
  // Per-pair medians over the cycles, so one slow cycle moves no pair.
  const std::vector<double> pair_ms = PairMedians(items, cycles);
  int decided_fast = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (pair_ms[i] <= kDecidedLimitMs &&
        Decided(items[i], cycles.front().serial.reports[i]))
      ++decided_fast;
  }
  auto med = [&](const std::function<double(const Cycle&)>& f) {
    return MedianOver(cycles, f);
  };
  return {
      {"setup_s", setup_s, "s"},
      {"corpus_s", med([](const Cycle& c) { return c.serial.wall_s; }), "s"},
      {"par_corpus_s", med([](const Cycle& c) { return c.parallel.wall_s; }),
       "s"},
      {"pair_p50_ms", Percentile(pair_ms, 0.50), "ms"},
      {"pair_p95_ms", Percentile(pair_ms, 0.95), "ms"},
      {"decided_50ms_frac",
       static_cast<double>(decided_fast) / static_cast<double>(pair_ms.size()),
       "ratio"},
      {"cold_s", ColdSeconds(items, cycles), "s"},
      {"hit_cpu_us", Median(RefCpuUs(cycles)), "us"},
      // After the first cycle: later cycles start fresh threads, whose
      // malloc arenas add resident memory that says nothing about the
      // verifier and varies with how many cycles fit in the run.
      {"peak_rss_mb", cycles.front().rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const std::vector<Item>& items,
                             const std::vector<Cycle>& cycles,
                             const SetupTimes& setup, const Tally& tally,
                             double span_gap_max_ms) {
  using Report = core::VerificationReport;
  using Stats = symex::SymexStats;
  auto med = [&](const std::function<double(const Cycle&)>& f) {
    return MedianOver(cycles, f);
  };
  // Sums over one serial pass: counts repeat exactly from cycle to cycle,
  // times take the median over cycles.
  auto report_sum = [&](const std::function<double(const Report&)>& f) {
    return med([&](const Cycle& c) {
      double s = 0;
      for (const Report& r : c.serial.reports) s += f(r);
      return s;
    });
  };
  auto stat_sum = [&](std::uint64_t Stats::*field) {
    return report_sum([&](const Report& r) {
      return static_cast<double>(r.symex_stats.*field);
    });
  };
  auto stat_max = [&](std::uint64_t Stats::*field) {
    double m = 0;
    for (const Report& r : cycles.front().serial.reports) {
      m = std::max(m, static_cast<double>(r.symex_stats.*field));
    }
    return m;
  };
  auto span_sum = [&](const char* name) {
    return med([&](const Cycle& c) { return c.serial_trace.SpanSum(name); });
  };
  auto replay = [&](std::vector<double> Replay::*field) {
    std::vector<double> all;
    for (const Cycle& c : cycles) {
      const std::vector<double>& v = c.replay.*field;
      all.insert(all.end(), v.begin(), v.end());
    }
    return Median(all);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  // Median serial wall of one Table II pair (0 where it is absent).
  const std::vector<double> walls = PairMedians(items, cycles);
  auto paper_pair_s = [&](int idx) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!items[i].generated && items[i].pair.idx == idx) {
        return walls[i] / 1e3;
      }
    }
    return 0.0;
  };

  const double combine_ms = span_sum("combine");
  const double instructions = stat_sum(&Stats::instructions);
  const double hits = stat_sum(&Stats::solver_cache_hits);
  const double misses = stat_sum(&Stats::solver_cache_misses);
  const double steps = stat_sum(&Stats::solver_steps);
  const double intern_hits = stat_sum(&Stats::expr_intern_hits);
  const double intern_nodes = stat_sum(&Stats::expr_intern_nodes);
  const double fuzz_runs =
      report_sum([](const Report& r) { return r.fuzz_attempted ? 1.0 : 0.0; });
  const double fuzz_upgrades = report_sum([](const Report& r) {
    return r.verdict == core::Verdict::kTriggeredByFuzzing ? 1.0 : 0.0;
  });
  const std::vector<double> hit_ms = RefLatencies(cycles);

  std::vector<double> busy, inflation, queue_wait, service, overhead;
  for (const Cycle& c : cycles) {
    // Both passes time Verify() per pair (report timings) the same way.
    double par_ms = 0, serial_ms = 0;
    for (const Report& r : c.parallel.reports) {
      par_ms += r.timings.total_seconds * 1e3;
    }
    for (const Report& r : c.serial.reports) {
      serial_ms += r.timings.total_seconds * 1e3;
    }
    busy.push_back(ratio(par_ms, kParallelJobs * c.parallel.wall_s * 1e3));
    inflation.push_back(ratio(par_ms, serial_ms));
    const auto waits = c.ref_trace.counters.find("queue_wait_ms");
    if (waits != c.ref_trace.counters.end()) {
      for (const std::int64_t v : waits->second) queue_wait.push_back(v);
    }
    const auto spans = c.ref_trace.span_ms.find("request");
    const double service_ms =
        spans == c.ref_trace.span_ms.end() ? 0 : Median(spans->second);
    service.push_back(service_ms);
    overhead.push_back((Median(c.ref[0].rtt_ms) - service_ms) * 1e3);
  }

  return {
      {"corpus.build_ms", setup.corpus_ms, "ms"},
      {"corpus.build_pair_us", replay(&Replay::build_pair_us), "us"},
      {"gen.generate_ms", setup.gen_ms, "ms"},
      {"gen.load_pair_us", replay(&Replay::load_pair_us), "us"},
      {"vm.preprocess_ms", report_sum([](const Report& r) {
         return r.timings.preprocess_seconds * 1e3;
       }), "ms"},
      {"vm.p4_ms", span_sum("concrete_verify"), "ms"},
      {"taint.p1_ms", report_sum([](const Report& r) {
         return r.timings.p1_seconds * 1e3;
       }), "ms"},
      {"cfg.build_ms", span_sum("guiding_input"), "ms"},
      {"symex.combine_ms", combine_ms, "ms"},
      {"symex.instructions", instructions, "count"},
      {"symex.instr_per_ms", ratio(instructions, combine_ms), "1/ms"},
      {"symex.states_created", stat_sum(&Stats::states_created), "count"},
      {"symex.peak_live_states", stat_max(&Stats::peak_live_states), "count"},
      {"symex.peak_memory_mb", stat_max(&Stats::peak_memory_bytes) / 1048576.0,
       "MB"},
      {"symex.intern_dedup_rate",
       ratio(intern_hits, intern_hits + intern_nodes), "ratio"},
      {"solver.queries", hits + misses, "count"},
      {"solver.steps", steps, "count"},
      {"solver.steps_per_miss", ratio(steps, misses), "ratio"},
      {"solver.hit_rate", ratio(hits, hits + misses), "ratio"},
      {"solver.exact_hits", stat_sum(&Stats::solver_exact_hits), "count"},
      {"solver.model_reuse_hits", stat_sum(&Stats::solver_model_reuse_hits),
       "count"},
      {"solver.subsumption_hits", stat_sum(&Stats::solver_subsumption_hits),
       "count"},
      {"fuzz.ms", span_sum("fuzz_fallback"), "ms"},
      {"fuzz.execs", report_sum([](const Report& r) {
         return static_cast<double>(r.fuzz_execs);
       }), "count"},
      {"fuzz.upgrade_frac", ratio(fuzz_upgrades, fuzz_runs), "ratio"},
      {"phase.retries", med([](const Cycle& c) {
         return static_cast<double>(c.serial_trace.CounterSum("phase.retry"));
       }), "count"},
      {"parallel.busy_frac", Median(busy), "ratio"},
      {"parallel.pair_inflation", Median(inflation), "ratio"},
      {"artifact.hits", med([](const Cycle& c) {
         return static_cast<double>(
             c.fill_trace.CounterSum("artifact.", ".hit"));
       }), "count"},
      {"artifact.misses", med([](const Cycle& c) {
         return static_cast<double>(
             c.fill_trace.CounterSum("artifact.", ".miss"));
       }), "count"},
      {"artifact.key_us", replay(&Replay::key_us), "us"},
      {"disk.get_us", replay(&Replay::get_us), "us"},
      {"disk.put_ms", replay(&Replay::put_ms), "ms"},
      {"report_io.parse_us", replay(&Replay::parse_us), "us"},
      {"report_io.serialize_us", replay(&Replay::serialize_us), "us"},
      {"server.queue_wait_p50_ms", Percentile(queue_wait, 0.50), "ms"},
      {"server.queue_wait_p99_ms", Percentile(queue_wait, 0.99), "ms"},
      {"server.service_ms", Median(service), "ms"},
      {"server.shed", med([](const Cycle& c) {
         return static_cast<double>(c.serve_stats.shed);
       }), "count"},
      {"client.overhead_us", Median(overhead), "us"},
      {"loadgen.late_p99_ms", med([](const Cycle& c) {
         return c.ref[0].late_p99_ms;
       }), "ms"},
      {"hit_p50_ms", Percentile(hit_ms, 0.50), "ms"},
      {"hit_p99_ms", Percentile(hit_ms, 0.99), "ms"},
      {"hit_capacity_rps", med([](const Cycle& c) { return c.capacity.rate; }),
       "1/s"},
      {"max_hit_rps", med([](const Cycle& c) { return c.max_hit_rps; }), "1/s"},
      {"pair14_s", paper_pair_s(14), "s"},
      {"pair3_s", paper_pair_s(3), "s"},
      {"failed_frac", ratio(tally.failed, tally.attempted), "ratio"},
      {"trace.overhead_frac", med([&](const Cycle& c) {
         return ratio(c.serial.wall_s - c.untraced_serial_s,
                      c.untraced_serial_s);
       }), "ratio"},
      {"trace.span_gap_max_ms", span_gap_max_ms, "ms"},
  };
}

void PrintRows(const Workload& w, const std::vector<Item>& items,
               const std::vector<Cycle>& cycles) {
  const std::vector<double> walls = PairMedians(items, cycles);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const core::VerificationReport& r = cycles.front().serial.reports[i];
    const symex::SymexStats& s = r.symex_stats;
    const double wall = walls[i];
    std::printf(
        "row workload=%s idx=%d class=%s verdict=%s type=%s wall_ms=%.4f "
        "pre_ms=%.4f p1_ms=%.4f p23_ms=%.4f p4_ms=%.4f instr=%llu "
        "states=%llu queries=%llu fuzz_execs=%llu\n",
        w.name.c_str(), items[i].pair.idx,
        items[i].generated ? items[i].taxonomy.c_str() : "table2",
        std::string(core::VerdictName(r.verdict)).c_str(),
        std::string(core::ResultTypeName(r.type)).c_str(), wall,
        r.timings.preprocess_seconds * 1e3, r.timings.p1_seconds * 1e3,
        r.timings.p23_seconds * 1e3, r.timings.p4_seconds * 1e3,
        static_cast<unsigned long long>(s.instructions),
        static_cast<unsigned long long>(s.states_created),
        static_cast<unsigned long long>(s.solver_cache_hits +
                                        s.solver_cache_misses),
        static_cast<unsigned long long>(r.fuzz_execs));
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 20;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return (argc % 2) == 1 && args->seconds > 0 &&
         (args->workload == "table2" || args->workload == "gen" ||
          args->workload == "serve");
}

int Run(const Args& args) {
  core::SetGenPairLoader(&gen::LoadGeneratedPair);
  Workload w;
  w.name = args.workload;
  // The serve wire reserves gen_seed 0 for "no generator".
  w.gen_seed = args.seed == 0 ? (1ULL << 63) : args.seed;
  if (w.name == "table2") {
    w.paper = true;
  } else if (w.name == "gen") {
    w.ordinals = SelectOrdinals(w.gen_seed, kGenPairs);
    w.options = SoakRung();
  } else {
    w.paper = true;
    w.ordinals = SelectOrdinals(w.gen_seed, kServeSlice);
    w.options = SoakRung();
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("perfbench workload=%s seed=%llu gen_seed=%llu seconds=%g "
              "trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(w.gen_seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host nproc=%u build=%s compiler=%s\n", nproc,
              PERFBENCH_BUILD_TYPE, __VERSION__);

  // Set-up, repeated: pair construction and a daemon start on a fresh
  // disk tier. The last repetition's pairs are the workload.
  std::vector<double> setup_s;
  std::vector<double> corpus_ms, gen_ms, server_ms;
  std::vector<Item> items;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::unique_ptr<support::Tracer> tracer;
    if (args.trace) tracer = std::make_unique<support::Tracer>();
    SetupTimes t;
    items = BuildItems(w, tracer.get(), &t);
    auto server = StartServer(w, "setup", tracer.get(), &t.server_ms);
    server->Drain();
    server.reset();
    std::filesystem::remove_all("disk-setup");
    setup_s.push_back((t.corpus_ms + t.gen_ms + t.server_ms) / 1e3);
    corpus_ms.push_back(t.corpus_ms);
    gen_ms.push_back(t.gen_ms);
    server_ms.push_back(t.server_ms);
  }
  SetupTimes setup{Median(corpus_ms), Median(gen_ms), 0};
  std::printf("setup pairs=%zu generated=%zu reps=%d median_s=%.6f "
              "corpus_ms=%.3f gen_ms=%.3f server_ms=%.3f\n",
              items.size(), w.ordinals.size(), kSetupReps, Median(setup_s),
              Median(corpus_ms), Median(gen_ms), Median(server_ms));

  Tally tally;
  Rng rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Cycle> cycles;
  const auto t0 = Clock::now();
  for (;;) {
    const auto c0 = Clock::now();
    cycles.push_back(RunCycle(w, items, static_cast<int>(cycles.size()),
                              args.trace, rng, &tally));
    const Cycle& c = cycles.back();
    std::printf("cycle %zu serial_s=%.4f par_s=%.4f cold_s=%.4f "
                "capacity_rps=%.0f took_s=%.2f\n",
                cycles.size() - 1, c.serial.wall_s, c.parallel.wall_s,
                c.cold_s, c.capacity.rate, MsSince(c0) / 1e3);
    std::vector<const HitStep*> steps;
    for (const HitStep& h : c.ref) steps.push_back(&h);
    steps.push_back(&c.capacity);
    for (const HitStep& h : c.ladder) steps.push_back(&h);
    for (const HitStep* h : steps) {
      std::printf("  hits rate=%.0f n=%d p50_ms=%.4f p99_ms=%.4f "
                  "late_p50_ms=%.4f late_p99_ms=%.4f cpu_us=%.2f "
                  "failed=%d %s\n",
                  h->rate, h->requests, h->p50_ms, h->p99_ms, h->late_p50_ms,
                  h->late_p99_ms, h->cpu_us, h->failed,
                  h->pass ? "pass" : "miss");
    }
    // Reports must repeat byte for byte from pass to pass.
    for (std::size_t i = 0; i < items.size(); ++i) {
      tally.Op(c.serial.canonical[i] == cycles.front().serial.canonical[i],
               "pair " + std::to_string(items[i].pair.idx) +
                   ": report differs between passes");
    }
    const double elapsed = MsSince(t0) / 1e3;
    if (elapsed + elapsed / cycles.size() > args.seconds) break;
  }
  // The time the last cycle leaves unused goes to more cold fills, whose
  // latencies count as the last cycle's. Only cold_s uses them.
  int tail_fills = 0;
  while (!args.trace) {
    const std::vector<double>& last = cycles.back().fill_ms.back();
    const double fill_s =
        std::accumulate(last.begin(), last.end(), 0.0) / 1e3;
    if (MsSince(t0) / 1e3 + fill_s > args.seconds) break;
    cycles.back().fill_ms.push_back(
        ExtraFill(w, items, "tail-" + std::to_string(tail_fills++),
                  cycles.back().serial.canonical, &tally));
  }
  std::printf("tail fills=%d took_s=%.2f\n", tail_fills, MsSince(t0) / 1e3);
  PrintRows(w, items, cycles);

  // Trace consistency: the phase spans of each pair account for its
  // VerifyPair wall time (checked per cycle), and the reference window
  // has one daemon request span per client request.
  double span_gap_max_ms = 0;
  bool spans_ok = true;
  if (args.trace) {
    for (const Cycle& c : cycles) {
      spans_ok = spans_ok && c.spans_ok;
      for (const auto& [wall, phases] : c.serial_trace.pair_vs_phases) {
        span_gap_max_ms = std::max(span_gap_max_ms, std::abs(wall - phases));
      }
      // A served request's span cannot exceed the client's round trip.
      const auto it = c.ref_trace.span_ms.find("request");
      if (c.ref_trace.SpanCount("request") != c.ref[0].rtt_ms.size())
        spans_ok = false;
      if (it != c.ref_trace.span_ms.end() &&
          Percentile(it->second, 0.5) > Percentile(c.ref[0].rtt_ms, 0.5))
        spans_ok = false;
    }
    tally.Op(spans_ok, "trace: phase or request spans do not add up");
  }

  const std::vector<Metric> metrics =
      args.trace ? PerLayer(items, cycles, setup, tally, span_gap_max_ms)
                 : EndToEnd(items, cycles, Median(setup_s));
  for (const Metric& m : metrics) {
    std::printf("metric %s %s %s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& p : tally.problems) {
    std::fprintf(stderr, "FAILED: %s\n", p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload table2|gen|serve [--seed N] "
                 "[--seconds S] [--trace 0|1]\n");
    return 2;
  }
  try {
    return Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
