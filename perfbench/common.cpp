// Statistics, correctness accounting, phase timing, trace harvest and the
// per-layer reducer shared by the three workloads.
#include "bench.hpp"

#include <pmemcpy/pmemcpy.hpp>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace pb {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) {
    // Too few samples for any percentile to have 10 beyond it: the maximum.
    t.value = v.back();
    t.percentile = 100;
    return t;
  }
  // Nearest-rank percentile p sits at rank ceil(p*n/100); it has n - rank
  // samples above it, so the largest p with rank <= n - 10.
  int p = static_cast<int>(std::floor(100.0 * static_cast<double>(n - 10) /
                                      static_cast<double>(n)));
  auto rank_of = [n](int pct) {
    return static_cast<std::size_t>(
        std::ceil(static_cast<double>(pct) * static_cast<double>(n) / 100.0));
  };
  while (p > 0 && rank_of(p) > n - 10) --p;
  const std::size_t rank = std::max<std::size_t>(1, rank_of(p));
  t.value = v[rank - 1];
  t.percentile = p;
  return t;
}

bool guarded(Tally& t, const std::function<void()>& op) {
  t.attempted.fetch_add(1);
  try {
    op();
    return true;
  } catch (const pmemcpy::KeyError& e) {
    t.missing.fetch_add(1);
    t.note(e.what());
  } catch (const std::exception& e) {
    t.exceptions.fetch_add(1);
    t.note(e.what());
  }
  return false;
}

// --- trace harvest -----------------------------------------------------------

namespace {

const char* bench_span_name(Phase p) {
  return p == Phase::kWrite ? "bench.write" : "bench.read";
}

/// Reduce the registry to one LayerPhase: the critical rank is the rank
/// whose bench span ran longest; self time is summed over that span's
/// subtree only.
LayerPhase harvest(Phase phase, double sim_s) {
  LayerPhase out;
  out.sim_s = sim_s;
  const auto spans = trace::snapshot();
  out.dropped = trace::dropped_spans();
  for (int c = 0; c < kNumCounters; ++c) {
    out.counters[static_cast<std::size_t>(c)] =
        trace::counter(static_cast<trace::Counter>(c));
  }
  const char* bench = bench_span_name(phase);
  const trace::SpanData* crit = nullptr;
  std::int64_t min_ns = -1;
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& s : spans) {
    ++out.spans[s.name];
    if (s.parent != 0) child_ns[s.parent] += s.duration_ns();
    if (std::strcmp(s.name, bench) != 0) continue;
    if (crit == nullptr || s.duration_ns() > crit->duration_ns()) crit = &s;
    if (min_ns < 0 || s.duration_ns() < min_ns) min_ns = s.duration_ns();
  }
  if (crit == nullptr) return out;
  out.crit_rank = crit->rank;
  const auto max_ns = crit->duration_ns();
  out.imbalance = max_ns > 0 ? static_cast<double>(max_ns - min_ns) /
                                   static_cast<double>(max_ns)
                             : 0.0;
  for (int c = 0; c < trace::kNumChargeKinds; ++c) {
    out.charge[static_cast<std::size_t>(c)] = crit->charge_sec[c];
  }
  // Spans are recorded in open order, so a parent always precedes its
  // children: one forward pass marks the critical subtree.
  std::unordered_set<std::uint64_t> in_tree = {crit->id};
  for (const auto& s : spans) {
    if (s.id == crit->id || !in_tree.count(s.parent)) continue;
    in_tree.insert(s.id);
    const auto self = s.duration_ns() - child_ns[s.id];
    out.self_s[s.name] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

}  // namespace

double Recorder::run(par::Comm& comm, Phase phase, bool record,
                     const std::function<void()>& body) {
  comm.barrier();
  const bool lead = comm.rank() == 0;
  const double h0 = lead ? host_now() : 0.0;
  const double dt = comm.timed_max([&] {
    trace::Span span(bench_span_name(phase));
    body();
  });
  if (lead) {
    const double h1 = host_now();
    const auto p = static_cast<std::size_t>(phase);
    if (record) {
      sim[p].push_back(dt);
      host[p].push_back(h1 - h0);
    }
    if (trace::enabled()) {
      if (record) layers[p].push_back(harvest(phase, dt));
      trace::reset();
    }
  }
  return dt;
}

bool Recorder::another_step(par::Comm& comm, std::size_t done,
                            std::size_t min_steps, double deadline,
                            double hard_deadline) {
  int go = 0;
  if (comm.rank() == 0) {
    const double now = host_now();
    go = done == 0 ||
                 (now < hard_deadline && (done < min_steps || now < deadline))
             ? 1
             : 0;
  }
  comm.bcast(&go, sizeof go, 0);
  return go != 0;
}

// --- run skeleton ------------------------------------------------------------

bool Run::end_setup(par::Comm& comm) {
  comm.barrier();
  if (comm.rank() == 0) setups.push_back(host_now() - setup_t0_);
  return last_setup_;
}

void Run::set_tracing(par::Comm& comm, bool on) {
  comm.barrier();
  if (comm.rank() == 0) {
    trace::set_enabled(on);
    trace::reset();
  }
  comm.barrier();
}

void Run::setup_phase(par::Comm& comm, Phase phase,
                      const std::function<void(bool spans)>& body) {
  const bool traced_phase = args.trace && last_setup_;
  Recorder& rec = traced_phase ? traced : untraced;
  const bool spans = spans_on(rec, true);
  if (traced_phase) set_tracing(comm, true);
  rec.run(comm, phase, true, [&] { body(spans); });
  if (traced_phase) set_tracing(comm, false);
}

void Run::timed(par::Comm& comm, std::size_t first, const StepFn& step) {
  const bool lead = comm.rank() == 0;
  // With --trace 1, 40% of the budget goes to untraced reference steps and
  // 40% to traced ones; the rest is left for the replay.  A slow host may
  // overrun a loop's share threefold to reach min_steps, never more.
  const double share = (args.trace ? 0.4 : 1.0) * args.seconds;
  const std::size_t min_steps = args.trace ? kMinTracedSteps : kMinSteps;
  std::size_t s = first;
  std::size_t done = 0;
  double start = lead ? host_now() : 0.0;
  while (untraced.another_step(comm, done, min_steps, start + share,
                               start + 3.0 * share)) {
    step(untraced, s++, true);
    ++done;
  }
  if (!args.trace) return;

  set_tracing(comm, true);
  done = 0;
  start = lead ? host_now() : 0.0;
  while (traced.another_step(comm, done, min_steps, start + share,
                             start + 3.0 * share)) {
    step(traced, s++, true);
    ++done;
  }
  set_tracing(comm, false);
}

void merge_host_spans(const Run& run, LayerInputs& in) {
  for (const auto& h : run.host_spans) {
    in.put_host_s.insert(in.put_host_s.end(), h.put.begin(), h.put.end());
    in.get_host_s.insert(in.get_host_s.end(), h.get.begin(), h.get.end());
    in.mmap_host_s.insert(in.mmap_host_s.end(), h.mmap.begin(), h.mmap.end());
    in.munmap_host_s.insert(in.munmap_host_s.end(), h.munmap.begin(),
                            h.munmap.end());
  }
  in.untraced = &run.untraced;
  in.traced = &run.traced;
}

// --- end-to-end --------------------------------------------------------------

void add_end_to_end(Result& r, const Recorder& rec,
                    const std::vector<double>& setups) {
  const auto w = tail(rec.sim[0]);
  const auto rd = tail(rec.sim[1]);
  r.add("write_sim_s", median(rec.sim[0]), "s");
  r.add("write_sim_s_tail", w.value, "s");
  r.add("read_sim_s", median(rec.sim[1]), "s");
  r.add("read_sim_s_tail", rd.value, "s");
  r.add("setup_s", median(setups), "s");
  r.add("peak_rss_mib", peak_rss_mib(), "MiB");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "write_sim_s_tail is p%d of n=%zu; read_sim_s_tail is p%d of "
                "n=%zu",
                w.percentile, w.n, rd.percentile, rd.n);
  r.note(buf);
  std::ostringstream os;
  os << "setup_s is the median of " << setups.size() << " set-ups (s):";
  for (double t : setups) os << ' ' << t;
  r.note(os.str());
  // Host seconds per phase are reported but not gated: run to run they move
  // with the load other tenants put on the machine (README.md).
  std::snprintf(buf, sizeof buf,
                "ungated: write_host_s %.9g s, read_host_s %.9g s (medians)",
                median(rec.host[0]), median(rec.host[1]));
  r.note(buf);
}

// --- per-layer reducer -------------------------------------------------------

namespace {

double counter_sum(const std::vector<LayerPhase>& v, trace::Counter c) {
  double s = 0;
  for (const auto& l : v) s += static_cast<double>(l.counters[static_cast<std::size_t>(c)]);
  return s;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

}  // namespace

void add_trace_layers(Result& r, const LayerInputs& in) {
  const auto& tw = in.traced->layers[0];
  const auto& trd = in.traced->layers[1];
  if (tw.empty() || trd.empty()) {
    r.fail("traced run recorded no write or no read phase");
    return;
  }
  std::vector<const LayerPhase*> all;
  for (const auto* v : {&tw, &trd}) {
    for (const auto& l : *v) all.push_back(&l);
  }

  // Every phase: the critical rank's charges must account for the phase's
  // simulated time, and no span may have been dropped at the registry cap.
  for (const auto* l : all) {
    double sum = 0;
    for (double c : l->charge) sum += c;
    if (std::fabs(sum - l->sim_s) > 1e-8 + 1e-6 * l->sim_s) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "charges on critical rank sum to %.9f s, phase took %.9f s",
                    sum, l->sim_s);
      r.fail(buf);
      break;
    }
    if (l->dropped != 0) {
      r.fail("trace registry dropped " + std::to_string(l->dropped) + " spans");
      break;
    }
  }

  // A step is one write phase and one read phase.  Workloads may record
  // different numbers of each (analysis_read writes once per set-up), so a
  // per-step figure adds the write phases' figure to the read phases'.
  auto self_of = [](const LayerPhase& l, const char* name) {
    const auto it = l.self_s.find(name);
    return it != l.self_s.end() ? it->second : 0.0;
  };
  auto step_self = [&](const char* name) {
    double s = 0;
    for (const auto* v : {&tw, &trd}) {
      std::vector<double> x;
      for (const auto& l : *v) x.push_back(self_of(l, name));
      s += median(x);
    }
    return s;
  };
  auto per_step = [&](trace::Counter c) {
    return counter_sum(tw, c) / static_cast<double>(tw.size()) +
           counter_sum(trd, c) / static_cast<double>(trd.size());
  };
  auto total = [&](trace::Counter c) {
    return counter_sum(tw, c) + counter_sum(trd, c);
  };
  auto scaled_median = [](const std::vector<double>& v, double scale) {
    return median(v) * scale;
  };
  const double puts = per_step(trace::Counter::kEnginePuts);

  // Whole-phase host seconds of the untraced reference phases (ungated).
  r.add("write_host_s", median(in.untraced->host[0]), "s");
  r.add("read_host_s", median(in.untraced->host[1]), "s");

  // core
  r.add("core.put.host_us", scaled_median(in.put_host_s, 1e6), "us");
  r.add("core.get.host_us", scaled_median(in.get_host_s, 1e6), "us");
  r.add("core.mmap.host_ms", scaled_median(in.mmap_host_s, 1e3), "ms");
  r.add("core.munmap.host_ms", scaled_median(in.munmap_host_s, 1e3), "ms");
  r.add("core.put.sim_self_s", step_self("core.put"), "s");
  r.add("core.serialize.sim_self_s", step_self("core.serialize"), "s");
  r.add("core.get.sim_self_s", step_self("core.get"), "s");
  const double hits = total(trace::Counter::kReadCacheHits);
  const double misses = total(trace::Counter::kReadCacheMisses);
  r.add("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
  r.add("cache.fill_mib",
        per_step(trace::Counter::kReadCacheFillBytes) / 1048576.0, "MiB");
  r.add("cache.evictions", per_step(trace::Counter::kReadCacheEvictions),
        "count");
  // pMEMCPY serializes into and decodes from PMEM in place: a byte staged
  // through DRAM is a defect, not a cost.
  const double staged = total(trace::Counter::kCopyStagedBytes);
  const double read_staged = total(trace::Counter::kCopyReadStagedBytes);
  r.add("copy.staged_bytes", staged, "B");
  r.add("copy.read_staged_bytes", read_staged, "B");
  if (staged != 0 || read_staged != 0) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "copy.staged_bytes %.0f and copy.read_staged_bytes %.0f "
                  "must both be 0",
                  staged, read_staged);
    r.fail(buf);
  }

  // engine
  r.add("engine.put.sim_self_s", step_self("engine.put"), "s");
  r.add("engine.get.sim_self_s", step_self("engine.get"), "s");
  r.add("engine.puts_per_step", puts, "count");

  // pmemobj
  r.add("pool.alloc.sim_self_s", step_self("pool.alloc"), "s");
  r.add("pool.free.sim_self_s", step_self("pool.free"), "s");
  r.add("alloc.lane_acquisitions_per_put",
        ratio(per_step(trace::Counter::kAllocLaneAcquisitions), puts), "count");
  r.add("alloc.magazine_hit_ratio",
        ratio(total(trace::Counter::kAllocMagazineHits),
              total(trace::Counter::kAllocOps)),
        "ratio");
  r.add("alloc.metadata_persists_per_put",
        ratio(per_step(trace::Counter::kAllocMetadataPersists), puts), "count");
  r.add("tx.commits_per_put", ratio(per_step(trace::Counter::kTxCommits), puts),
        "count");
  r.add("ht.publish.sim_self_s",
        step_self("ht.publish") + step_self("ht.publish_group"), "s");
  auto rehashes = [](const LayerPhase& l) -> std::uint64_t {
    const auto it = l.spans.find("ht.rehash");
    return it != l.spans.end() ? it->second : 0;
  };
  double rehash_total = 0;
  for (const auto* l : all) rehash_total += static_cast<double>(rehashes(*l));
  r.add("ht.rehash_count", rehash_total, "count");
  r.add("pool.space_amp", in.space_amp, "ratio");

  // pmemfs
  r.add("fs.fsync.sim_self_s", step_self("fs.fsync"), "s");

  // pmemdev
  r.add("pmemdev.write_amp",
        ratio(per_step(trace::Counter::kBytesWritten), in.user_bytes_written),
        "ratio");
  r.add("pmemdev.read_amp",
        ratio(per_step(trace::Counter::kBytesRead), in.user_bytes_read),
        "ratio");
  r.add("pmemdev.flushes_per_put",
        ratio(per_step(trace::Counter::kFlushOps), puts), "count");
  r.add("pmemdev.fences_per_put",
        ratio(per_step(trace::Counter::kFenceOps), puts), "count");
  r.add("pmemdev.lines_flushed_per_put",
        ratio(per_step(trace::Counter::kLinesFlushed), puts), "count");

  // Charges on the critical ranks of the median write phase and the median
  // read phase; they sum to charge.step_sim_s.
  auto median_phase = [](const std::vector<LayerPhase>& v) -> const LayerPhase& {
    std::vector<std::pair<double, std::size_t>> by_sim;
    for (std::size_t i = 0; i < v.size(); ++i) by_sim.emplace_back(v[i].sim_s, i);
    std::sort(by_sim.begin(), by_sim.end());
    return v[by_sim[(by_sim.size() - 1) / 2].second];
  };
  const LayerPhase& mw = median_phase(tw);
  const LayerPhase& mr = median_phase(trd);
  double charged = 0;
  for (int c = 0; c < trace::kNumChargeKinds; ++c) {
    const double v = mw.charge[static_cast<std::size_t>(c)] +
                     mr.charge[static_cast<std::size_t>(c)];
    charged += v;
    r.add(std::string("charge.") +
              trace::charge_name(static_cast<pmemcpy::sim::Charge>(c)) + "_s",
          v, "s");
  }
  r.add("charge.step_sim_s", mw.sim_s + mr.sim_s, "s");
  {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "median traced write (crit rank %d) + read (crit rank %d) "
                  "phase: charges sum %.9f s = step %.9f s",
                  mw.crit_rank, mr.crit_rank, charged, mw.sim_s + mr.sim_s);
    r.note(buf);
  }

  // par
  r.add("par.barrier.sim_self_s", step_self("par.barrier"), "s");
  {
    std::vector<double> imb;
    for (const auto& l : tw) imb.push_back(l.imbalance);
    r.add("par.rank_imbalance", median(imb), "ratio");
  }

  // trace: the traced phases against the untraced ones of the same run.
  const auto& ur = *in.untraced;
  const auto& trr = *in.traced;
  const double host_u = median(ur.host[0]) + median(ur.host[1]);
  const double host_t = median(trr.host[0]) + median(trr.host[1]);
  r.add("trace.host_overhead", ratio(host_t, host_u) - 1.0, "ratio");
  r.add("trace.sim_delta_s",
        (median(trr.sim[0]) + median(trr.sim[1])) -
            (median(ur.sim[0]) + median(ur.sim[1])),
        "s");

  // Per-step rehash visibility (a rehash inside the timed window shows
  // here), run-length encoded as count x steps.
  std::ostringstream os;
  os << "ht.rehash per traced step (count x steps):";
  const std::size_t steps = std::max(tw.size(), trd.size());
  std::uint64_t prev = 0;
  std::size_t run = 0;
  for (std::size_t i = 0; i <= steps; ++i) {
    std::uint64_t n = 0;
    if (i < steps) {
      if (i < tw.size()) n += rehashes(tw[i]);
      if (i < trd.size()) n += rehashes(trd[i]);
    }
    if (i > 0 && (i == steps || n != prev)) {
      os << ' ' << prev << 'x' << run;
      run = 0;
    }
    prev = n;
    ++run;
  }
  r.note(os.str());
}

void add_baselines_absent(Result& r) {
  for (const char* n : {"adios.write_sim_s", "adios.read_sim_s",
                        "netcdf4.write_sim_s", "netcdf4.read_sim_s"}) {
    r.add(n, 0.0, "s");
  }
  for (const char* n : {"speedup.write_vs_adios", "speedup.read_vs_adios",
                        "speedup.write_vs_netcdf4", "speedup.read_vs_netcdf4"}) {
    r.add(n, 0.0, "x");
  }
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(const Args& a, const Result& r) {
  for (const auto& n : r.notes) std::printf("# %s\n", n.c_str());
  const std::uint64_t attempted = r.tally.attempted.load();
  const std::uint64_t failed = r.tally.failed();
  std::printf("# %s seed=%llu trace=%d: attempted=%llu exceptions=%llu "
              "missing=%llu mismatches=%llu failed_op_share=%.6g\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(r.tally.exceptions.load()),
              static_cast<unsigned long long>(r.tally.missing.load()),
              static_cast<unsigned long long>(r.tally.mismatches.load()),
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0);
  if (!r.tally.first_error.empty()) {
    std::printf("# first error: %s\n", r.tally.first_error.c_str());
  }
  for (const auto& m : r.metrics) {
    std::printf("%-36s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (r.correct && failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace pb
