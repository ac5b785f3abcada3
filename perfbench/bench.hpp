// pMEMCPY benchmark driver — shared vocabulary (see README.md here).
//
// Every workload runs as 4 ranks (threads of one par::Runtime) through the
// public pmemcpy::PMEM API.  A run has three parts:
//   * set-up, repeated kSetups times (median reported as setup_s): node
//     construction, input generation, populating the store, one warm-up step;
//     analysis_read's populate is its write phase, measured in every set-up;
//   * timed steps until --seconds of host time have passed, each made of
//     bulk-synchronous phases whose critical-path simulated seconds come from
//     Comm::timed_max and whose host seconds come from rank 0's steady clock;
//   * with --trace 1, the same steps again with the trace registry on, plus a
//     replay of direct calls into the lower layers (replay.cpp).
#pragma once

#include <pmemcpy/par/comm.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

namespace par = pmemcpy::par;
namespace trace = pmemcpy::trace;

inline constexpr int kRanks = 4;
inline constexpr int kSetups = 7;
/// Timed steps a run takes at least, so the tail percentile has 10 samples
/// beyond it even on a slow host.
inline constexpr std::size_t kMinSteps = 24;
/// With --trace 1: untraced reference steps, then traced steps, each at
/// least this many.
inline constexpr std::size_t kMinTracedSteps = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Host steady-clock seconds.
inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- deterministic inputs ----------------------------------------------------

/// splitmix64 step: the single source of every generated input.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return mix(a ^ mix(b));
}
/// Uniform double in [0, 1).
inline double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// FNV-1a digest of a workload's op stream.
class Digest {
 public:
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  void add(const std::string& s) { add(s.data(), s.size()); add(s.size()); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- statistics --------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

/// The highest whole percentile of @p v that still has at least 10 samples
/// above it (nearest-rank), with that percentile and the sample count.
struct Tail {
  double value = 0.0;
  int percentile = 0;
  std::size_t n = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

// --- correctness accounting --------------------------------------------------

/// Ops attempted and the ways they failed.  Shared by all ranks.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> exceptions{0};
  std::atomic<std::uint64_t> missing{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::mutex mu;
  std::string first_error;  ///< message of the first exception, guarded by mu

  void note(const char* what) {
    std::lock_guard lk(mu);
    if (first_error.empty()) first_error = what;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return exceptions.load() + missing.load() + mismatches.load();
  }
};

/// Run one PMEM operation, counting it and classifying any exception
/// (KeyError = missing key, anything else = exception).  Returns whether the
/// operation completed.
bool guarded(Tally& t, const std::function<void()>& op);

/// Count one verified read: @p bad elements differed from the generator.
inline void count_verify(Tally& t, std::size_t bad) {
  if (bad != 0) t.mismatches.fetch_add(1);
}

// --- per-layer trace harvest -------------------------------------------------

inline constexpr int kNumCounters =
    static_cast<int>(trace::Counter::kNumCounters);

/// What the trace registry recorded for one phase of one step.
struct LayerPhase {
  double sim_s = 0.0;  ///< the phase's critical-path simulated seconds
  int crit_rank = 0;   ///< rank whose bench span was longest
  double imbalance = 0.0;  ///< (max-min)/max of the ranks' phase durations
  std::array<double, trace::kNumChargeKinds> charge{};  ///< on crit_rank
  std::map<std::string, double> self_s;  ///< span self time on crit_rank
  std::map<std::string, std::uint64_t> spans;  ///< span count, all ranks
  std::array<std::uint64_t, kNumCounters> counters{};
  std::uint64_t dropped = 0;
};

// --- phases ------------------------------------------------------------------

enum class Phase { kWrite = 0, kRead = 1 };

/// Per-run recorder shared by the rank threads.  Every rank calls run() for
/// every phase; rank 0 owns the recorded samples.
class Recorder {
 public:
  /// Run @p body on every rank between a barrier and Comm::timed_max and
  /// return the critical-path simulated seconds.  When @p record is set,
  /// rank 0 keeps (sim, host) as one sample of @p phase; when tracing is on
  /// it also harvests the trace registry into a LayerPhase and resets it.
  double run(par::Comm& comm, Phase phase, bool record,
             const std::function<void()>& body);

  /// Collective: rank 0 decides from host time whether another timed step
  /// follows: always a first one, then at least @p min_steps and until
  /// @p deadline, but none past @p hard_deadline.
  bool another_step(par::Comm& comm, std::size_t done, std::size_t min_steps,
                    double deadline, double hard_deadline);

  std::vector<double> sim[2];
  std::vector<double> host[2];
  std::vector<LayerPhase> layers[2];
};

// --- workload results --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed first
  bool correct = true;
  Tally tally;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Fail the run's correctness with a reason.
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// End-to-end metrics from untraced steps, in the order BENCHMARK.json names
/// them; the host medians go to a note.
void add_end_to_end(Result& r, const Recorder& rec, const std::vector<double>& setups);

/// Context the traced run hands to the shared per-layer reducer.
struct LayerInputs {
  const Recorder* untraced = nullptr;
  const Recorder* traced = nullptr;
  double user_bytes_written = 0;  ///< payload bytes stored per write phase
  double user_bytes_read = 0;     ///< payload bytes loaded per read phase
  double space_amp = 0;           ///< store bytes in use / live user bytes
  /// Host samples from the benchmark's own spans around PMEM calls.
  std::vector<double> put_host_s, get_host_s, mmap_host_s, munmap_host_s;
};

/// Per-layer metrics computed from the trace harvest (every workload reports
/// the full set; a layer a workload never calls reads 0).  Fails the run
/// when the critical rank's charges do not sum to a phase's simulated time,
/// when spans were dropped, or when any byte was staged through DRAM.
void add_trace_layers(Result& r, const LayerInputs& in);

/// Per-layer replay metrics with the workload's sizes and keys (replay.cpp).
struct ReplayShape {
  std::vector<std::string> keys;    ///< the workload's keys (one rank's step)
  std::vector<std::size_t> bytes;   ///< payload bytes per key
  std::size_t piece_bytes = 0;      ///< tree-engine / pmemfs piece size
};
void add_replay(Result& r, const ReplayShape& shape);

/// The miniio reference numbers (ADIOS / NetCDF4) — only ckpt drives them;
/// the other workloads report 0 for these names.
void add_baselines_absent(Result& r);

// --- run skeleton --------------------------------------------------------------

/// Host seconds the benchmark's own spans measured around PMEM calls on one
/// rank (recorded only in the untraced reference phases of a --trace 1 run,
/// the phases write_host_s and read_host_s come from).
struct HostSpans {
  std::vector<double> put, get, mmap, munmap;
};

/// RAII host span: appends its duration to @p out when @p on.
class HostSpan {
 public:
  HostSpan(std::vector<double>& out, bool on)
      : out_(on ? &out : nullptr), t0_(on ? host_now() : 0.0) {}
  ~HostSpan() {
    if (out_ != nullptr) out_->push_back(host_now() - t0_);
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  std::vector<double>* out_;
  double t0_;
};

/// One step of a workload on one rank: run its phases through @p rec,
/// recording samples when @p record is set; failures go to the Tally.
using StepFn = std::function<void(Recorder& rec, std::size_t step, bool record)>;

/// The part of a run every workload shares: repeated set-ups, the untraced
/// timed steps and (with --trace 1) the traced ones.
class Run {
 public:
  explicit Run(const Args& a) : args(a) {}

  /// Rank body: after a rank finished its set-up (including the warm-up
  /// step), records the set-up time and returns whether this set-up is the
  /// one the timed steps run on.
  bool end_setup(par::Comm& comm);
  /// Rank body: the timed steps, numbered from @p first.
  void timed(par::Comm& comm, std::size_t first, const StepFn& step);
  /// Rank body: a set-up phase that is measured too (analysis_read's
  /// checkpoint write).  It is recorded in `untraced`, except on the last
  /// set-up of a --trace 1 run, where it runs traced and goes to `traced`.
  /// @p body receives whether to record host spans.
  void setup_phase(par::Comm& comm, Phase phase,
                   const std::function<void(bool spans)>& body);
  /// Whether a phase run through @p rec records the benchmark's host spans.
  [[nodiscard]] bool spans_on(const Recorder& rec, bool record) const {
    return args.trace && record && &rec == &untraced;
  }

  /// Main thread: build a node kSetups times, running @p rank_fn on kRanks
  /// ranks for each; returns the node of the last set-up, on which the timed
  /// steps ran.
  template <typename MakeNode, typename RankFn>
  auto repeat_setups(MakeNode make_node, RankFn rank_fn) {
    decltype(make_node()) node;
    for (int k = 0; k < kSetups; ++k) {
      node.reset();
      last_setup_ = k == kSetups - 1;
      setup_t0_ = host_now();
      node = make_node();
      par::Runtime::run(kRanks, [&](par::Comm& comm) { rank_fn(comm, *node); });
    }
    return node;
  }

  const Args& args;
  Recorder untraced, traced;
  std::vector<double> setups;
  std::array<HostSpans, kRanks> host_spans;

 private:
  /// Collective: switch the trace registry on or off, emptied.
  static void set_tracing(par::Comm& comm, bool on);

  double setup_t0_ = 0.0;
  bool last_setup_ = false;
};

/// Merge every rank's host spans for the per-layer reducer.
void merge_host_spans(const Run& run, LayerInputs& in);

// --- workloads ---------------------------------------------------------------

void run_ckpt(const Args& a, Result& res);
void run_small_vars(const Args& a, Result& res);
void run_analysis_read(const Args& a, Result& res);

/// Peak resident set of the process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Print notes, then the final JSON result line run.py checks.
void print_result(const Args& a, const Result& r);

}  // namespace pb
