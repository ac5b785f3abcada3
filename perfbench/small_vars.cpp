// small_vars — time-stepped diagnostics, the reverse of ckpt.
//
// Every step, each rank stores kEntries seeded small entries (scalars and
// 1-D vectors of 8 B - 4 KiB) under step-scoped ids, then loads them all
// back.  Ids cycle through kSlots step slots: step s overwrites the ids step
// s-kSlots wrote, so the live set stays bounded and every put also frees the
// blob it replaces.  (Retiring ids with PMEM::remove instead is not viable:
// each remove scans the whole table twice — see core.remove.host_ms.)
//
// Why: payload bytes are tiny, so pool alloc/free and magazines, hashtable
// publish/find, tx commits and per-put persist barriers dominate.
#include "bench.hpp"

#include <pmemcpy/pmemcpy.hpp>

#include <cmath>
#include <cstdio>
#include <memory>

namespace pb {

namespace {

using pmemcpy::PmemNode;

constexpr std::size_t kEntries = 5000;  ///< per rank per step
constexpr std::size_t kSlots = 3;
constexpr std::size_t kMaxElems = 512;  ///< 4 KiB of doubles
constexpr const char* kRegion = "/small_vars.pmem";

/// One generated entry: a scalar double or a vector of doubles whose values
/// derive from (seed, step, rank, index).
struct Entry {
  bool scalar = true;
  std::size_t elems = 1;
  std::uint64_t h = 0;

  [[nodiscard]] double value(std::size_t j) const {
    return static_cast<double>(mix(h, j) >> 11);  // exact in a double
  }
};

Entry make_entry(std::uint64_t seed, std::size_t s, int rank, std::size_t i) {
  Entry e;
  e.h = mix(mix(seed, s), mix(static_cast<std::uint64_t>(rank), i));
  const std::uint64_t k = mix(e.h, 0xE7);
  e.scalar = k % 5 < 2;  // 40% scalars
  if (!e.scalar) {
    // Log-uniform length in [1, kMaxElems].
    e.elems = static_cast<std::size_t>(
        std::exp(unit(mix(k, 1)) * std::log(static_cast<double>(kMaxElems))));
    e.elems = std::min(std::max<std::size_t>(e.elems, 1), kMaxElems);
  }
  return e;
}

std::string key(int rank, std::size_t slot, std::size_t i) {
  return "diag.r" + std::to_string(rank) + ".s" + std::to_string(slot) + ".e" +
         std::to_string(i);
}

pmemcpy::Config config(PmemNode& node) {
  pmemcpy::Config cfg;
  cfg.node = &node;
  cfg.layout = pmemcpy::Layout::kHashTable;
  return cfg;
}

std::size_t entry_bytes(const Entry& e) { return e.elems * sizeof(double); }

/// Payload bytes one rank stores at step @p s.
double step_bytes(std::uint64_t seed, std::size_t s, int rank) {
  double b = 0;
  for (std::size_t i = 0; i < kEntries; ++i) {
    b += static_cast<double>(entry_bytes(make_entry(seed, s, rank, i)));
  }
  return b;
}

/// One rank's step inputs: keys of the slot and the generated entries.
struct RankStep {
  std::vector<Entry> entries;
  std::vector<std::vector<double>> vecs;  ///< generated vector payloads
  std::vector<double> scalars;

  void generate(std::uint64_t seed, std::size_t s, int rank) {
    entries.resize(kEntries);
    vecs.resize(kEntries);
    scalars.resize(kEntries);
    for (std::size_t i = 0; i < kEntries; ++i) {
      const Entry e = make_entry(seed, s, rank, i);
      entries[i] = e;
      if (e.scalar) {
        scalars[i] = e.value(0);
        vecs[i].clear();
      } else {
        vecs[i].resize(e.elems);
        for (std::size_t j = 0; j < e.elems; ++j) vecs[i][j] = e.value(j);
      }
    }
  }
};

}  // namespace

void run_small_vars(const Args& a, Result& res) {
  Run run(a);

  Digest dg;
  for (std::size_t s = 0; s < 16; ++s) {
    for (int r = 0; r < kRanks; ++r) {
      for (std::size_t i = 0; i < kEntries; ++i) {
        const Entry e = make_entry(a.seed, s, r, i);
        dg.add(key(r, s % kSlots, i));
        dg.add(e.h);
        dg.add(e.elems + (e.scalar ? 0 : 1000000));
      }
    }
  }
  {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "small_vars: %zu entries/rank/step, %zu slots, %d ranks, "
                  "op-stream digest (first 16 steps) %016llx",
                  kEntries, kSlots, kRanks,
                  static_cast<unsigned long long>(dg.value()));
    res.note(buf);
  }

  std::size_t last_step = 0;
  auto node = run.repeat_setups(
      [&] {
        PmemNode::Options o;
        o.capacity = 512ull << 20;
        o.pool_fraction = 0.9;
        return std::make_unique<PmemNode>(o);
      },
      [&](par::Comm& comm, PmemNode& n) {
        const int rank = comm.rank();
        auto& hs = run.host_spans[static_cast<std::size_t>(rank)];
        pmemcpy::PMEM p(config(n));
        p.mmap(kRegion, comm);
        RankStep d;
        std::vector<std::vector<double>> vin(kEntries);
        std::vector<double> sin(kEntries);
        const StepFn step = [&](Recorder& rec, std::size_t s, bool record) {
          d.generate(a.seed, s, rank);
          const std::size_t slot = s % kSlots;
          std::vector<std::string> keys(kEntries);
          for (std::size_t i = 0; i < kEntries; ++i) keys[i] = key(rank, slot, i);
          const bool spans = run.spans_on(rec, record);
          rec.run(comm, Phase::kWrite, record, [&] {
            for (std::size_t i = 0; i < kEntries; ++i) {
              HostSpan h(hs.put, spans);
              guarded(res.tally, [&] {
                if (d.entries[i].scalar) {
                  p.store(keys[i], d.scalars[i]);
                } else {
                  p.store(keys[i], d.vecs[i]);
                }
              });
            }
          });
          for (auto& v : vin) v.clear();
          rec.run(comm, Phase::kRead, record, [&] {
            for (std::size_t i = 0; i < kEntries; ++i) {
              HostSpan h(hs.get, spans);
              guarded(res.tally, [&] {
                if (d.entries[i].scalar) {
                  p.load(keys[i], sin[i]);
                } else {
                  p.load(keys[i], vin[i]);
                }
              });
            }
          });
          for (std::size_t i = 0; i < kEntries; ++i) {
            const bool ok = d.entries[i].scalar ? sin[i] == d.scalars[i]
                                                : vin[i] == d.vecs[i];
            count_verify(res.tally, ok ? 0 : 1);
          }
          if (rank == 0) last_step = s;
        };
        // Set-up: fill every slot, then one warm-up step.  The hashtable's
        // auto-grow rehashes happen here, not in the timed window.
        Recorder scratch;
        for (std::size_t s = 0; s <= kSlots; ++s) step(scratch, s, false);
        const bool go = run.end_setup(comm);
        if (go) run.timed(comm, kSlots + 1, step);
        p.munmap();
      });

  {
    pmemcpy::PMEM p(config(*node));
    p.mmap(kRegion);
    const auto rep = p.scrub();
    if (!rep.ok()) res.fail("scrub found " + std::to_string(rep.corrupt.size()) + " corrupt entries");
    p.munmap();
  }

  if (!a.trace) {
    add_end_to_end(res, run.untraced, run.setups);
    return;
  }

  // Payload bytes of the last kSlots steps are the live user bytes; the
  // last step's bytes stand for one traced step.
  double live = 0, per_step = 0;
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t k = 0; k < kSlots; ++k) live += step_bytes(a.seed, last_step - k, r);
    per_step += step_bytes(a.seed, last_step, r);
  }
  LayerInputs in;
  merge_host_spans(run, in);
  in.user_bytes_written = per_step;
  in.user_bytes_read = per_step;
  {
    auto pool = node->open_pool("_small_vars.pmem");
    const auto rep = pool->check();
    if (!rep.ok()) res.fail("Pool::check: " + rep.issues.front());
    in.space_amp = static_cast<double>(rep.bytes_in_use) / live;
  }
  add_trace_layers(res, in);

  // core.remove: one removal at the live-set size (kSlots x kEntries x
  // kRanks keys).
  {
    pmemcpy::PMEM p(config(*node));
    p.mmap(kRegion);
    const double t0 = host_now();
    guarded(res.tally, [&] { p.remove(key(0, last_step % kSlots, 0)); });
    res.add("core.remove.host_ms", (host_now() - t0) * 1e3, "ms");
    p.munmap();
  }
  node.reset();

  ReplayShape rs;
  for (std::size_t i = 0; i < kEntries; ++i) {
    const Entry e = make_entry(a.seed, last_step, 0, i);
    rs.keys.push_back(key(0, last_step % kSlots, i));
    rs.bytes.push_back(entry_bytes(e));
  }
  rs.piece_bytes = 4096;
  add_replay(res, rs);
  add_baselines_absent(res);
}

}  // namespace pb
