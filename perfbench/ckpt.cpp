// ckpt — the paper's Fig. 6+7 step, scaled down to 0.25 GiB per step.
//
// Ten 3-D double variables, 0.25 GiB per step, one box per rank, flat
// hashtable layout, BP4, MAP_SYNC off (the paper's PMCPY-A).  Each step is
// mmap -> alloc+store every variable -> munmap (write phase), then mmap ->
// load own box -> munmap (read phase), overwriting the same ids with data
// that changes every step so a stale read cannot verify.
//
// Why: bandwidth-bound.  pmemdev write/persist, serial encode + CRC and the
// engine's reserve/publish do the work; pmemobj sees only a few dozen
// metadata ops per step; the read cache and core hyperslab slicing are
// bypassed (symmetric reads hit the exact-piece fast path).
#include "bench.hpp"

#include <miniio/miniio.hpp>
#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/workload/domain3d.hpp>

#include <algorithm>
#include <cstdio>
#include <memory>

namespace pb {

namespace {

using pmemcpy::Box;
using pmemcpy::PmemNode;
namespace wk = pmemcpy::wk;

constexpr int kVars = 10;
constexpr double kStepBytes = 0.25 * 1024 * 1024 * 1024;
constexpr const char* kRegion = "/ckpt.pmem";

struct Shape {
  std::vector<wk::Decomposition> dec;  ///< one per variable
  std::uint64_t value_base = 0;
  double bytes = 0;  ///< payload bytes per step, all ranks

  /// Generator variable id for variable @p v at step @p s: the values change
  /// every step (4-step cycle), and with the seed.
  [[nodiscard]] int vid(int v, std::size_t s) const {
    return static_cast<int>(value_base + (s % 4) * 16 + static_cast<std::size_t>(v));
  }
  [[nodiscard]] const Box& box(int v, int rank) const {
    return dec[static_cast<std::size_t>(v)].rank_boxes[static_cast<std::size_t>(rank)];
  }
};

std::string var_name(int v) { return "rect" + std::to_string(v); }

/// The variable size jitters by up to +-1% with the seed, so every seed is a
/// distinct input of (nearly) the same cost.  All ten variables share it:
/// equal-sized overwrites let the allocator reuse each freed blob.
Shape make_shape(std::uint64_t seed) {
  Shape sh;
  sh.value_base = (mix(seed, 0xC4) % 4096) * 64;
  const double jitter = 1.0 + 0.02 * (unit(mix(seed, 100)) - 0.5);
  const double per_var = kStepBytes / kVars / sizeof(double) * jitter;
  for (int v = 0; v < kVars; ++v) {
    sh.dec.push_back(wk::decompose(static_cast<std::size_t>(per_var), kRanks));
    sh.bytes += static_cast<double>(sh.dec.back().total_elements()) * sizeof(double);
  }
  return sh;
}

std::uint64_t digest(const Shape& sh) {
  Digest d;
  for (std::size_t s = 0; s < 16; ++s) {
    for (int v = 0; v < kVars; ++v) {
      for (int r = 0; r < kRanks; ++r) {
        d.add(var_name(v));
        d.add(pmemcpy::box_to_string(sh.box(v, r)));
        d.add(static_cast<std::uint64_t>(sh.vid(v, s)));
      }
    }
  }
  return d.value();
}

pmemcpy::Config config(PmemNode& node) {
  pmemcpy::Config cfg;
  cfg.node = &node;
  cfg.map_sync = false;
  cfg.serializer = pmemcpy::serial::SerializerId::kBp4;
  cfg.layout = pmemcpy::Layout::kHashTable;
  return cfg;
}

std::unique_ptr<PmemNode> make_node(double bytes, double pool_fraction) {
  PmemNode::Options o;
  o.pool_fraction = pool_fraction;
  o.capacity = static_cast<std::size_t>(bytes * 1.6) + (64ull << 20);
  return std::make_unique<PmemNode>(o);
}

/// One rank's buffers: the data it writes and the boxes it reads back.
struct RankData {
  std::vector<std::vector<double>> out, in;
  RankData() : out(kVars), in(kVars) {}

  void generate(const Shape& sh, int rank, std::size_t s) {
    for (int v = 0; v < kVars; ++v) {
      const auto& d = sh.dec[static_cast<std::size_t>(v)];
      wk::fill_box(out[static_cast<std::size_t>(v)], sh.vid(v, s), d.global,
                   sh.box(v, rank));
      in[static_cast<std::size_t>(v)].assign(sh.box(v, rank).elements(), 0.0);
    }
  }
  void verify(const Shape& sh, int rank, std::size_t s, Tally& t) const {
    for (int v = 0; v < kVars; ++v) {
      const auto& d = sh.dec[static_cast<std::size_t>(v)];
      count_verify(t, wk::verify_box(in[static_cast<std::size_t>(v)],
                                     sh.vid(v, s), d.global, sh.box(v, rank)));
    }
  }
};

/// ADIOS / NetCDF4 through miniio on the same boxes: median write and read
/// simulated seconds over a few steps.
std::pair<double, double> baseline(miniio::Library lib, const Shape& sh,
                                   std::size_t step, Result& res) {
  auto node = make_node(sh.bytes, 0.02);
  Recorder rec;
  par::Runtime::run(kRanks, [&](par::Comm& comm) {
    const int rank = comm.rank();
    RankData d;
    d.generate(sh, rank, step);
    for (int rep = 0; rep < 3; ++rep) {
      rec.run(comm, Phase::kWrite, true, [&] {
        auto w = miniio::open_writer(lib, *node, "/ckpt.out", comm);
        for (int v = 0; v < kVars; ++v) {
          w->write(var_name(v), d.out[static_cast<std::size_t>(v)].data(),
                   sh.box(v, rank), sh.dec[static_cast<std::size_t>(v)].global);
        }
        w->close();
      });
      for (auto& b : d.in) std::fill(b.begin(), b.end(), 0.0);
      rec.run(comm, Phase::kRead, true, [&] {
        auto r = miniio::open_reader(lib, *node, "/ckpt.out", comm);
        for (int v = 0; v < kVars; ++v) {
          guarded(res.tally, [&] {
            r->read(var_name(v), d.in[static_cast<std::size_t>(v)].data(),
                    sh.box(v, rank));
          });
        }
        r->close();
      });
      d.verify(sh, rank, step, res.tally);
    }
  });
  return {median(rec.sim[0]), median(rec.sim[1])};
}

}  // namespace

void run_ckpt(const Args& a, Result& res) {
  Run run(a);
  const Shape sh = make_shape(a.seed);
  {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "ckpt: %d vars, %.1f MiB per step, %d ranks, op-stream "
                  "digest (first 16 steps) %016llx",
                  kVars, sh.bytes / 1048576.0, kRanks,
                  static_cast<unsigned long long>(digest(sh)));
    res.note(buf);
  }

  std::size_t last_step = 0;
  auto node = run.repeat_setups(
      [&] { return make_node(sh.bytes, 0.9); },
      [&](par::Comm& comm, PmemNode& n) {
        const int rank = comm.rank();
        const auto cfg = config(n);
        RankData d;
        auto& hs = run.host_spans[static_cast<std::size_t>(rank)];
        const StepFn step = [&](Recorder& rec, std::size_t s, bool record) {
          d.generate(sh, rank, s);
          const bool spans = run.spans_on(rec, record);
          rec.run(comm, Phase::kWrite, record, [&] {
            pmemcpy::PMEM p(cfg);
            {
              HostSpan h(hs.mmap, spans);
              p.mmap(kRegion, comm);
            }
            for (int v = 0; v < kVars; ++v) {
              const auto& bx = sh.box(v, rank);
              HostSpan h(hs.put, spans);
              guarded(res.tally, [&] {
                p.alloc<double>(var_name(v), sh.dec[static_cast<std::size_t>(v)].global);
                p.store(var_name(v), d.out[static_cast<std::size_t>(v)].data(), 3,
                        bx.offset.data(), bx.count.data());
              });
            }
            HostSpan h(hs.munmap, spans);
            p.munmap();
          });
          rec.run(comm, Phase::kRead, record, [&] {
            pmemcpy::PMEM p(cfg);
            p.mmap(kRegion, comm);
            for (int v = 0; v < kVars; ++v) {
              const auto& bx = sh.box(v, rank);
              HostSpan h(hs.get, spans);
              guarded(res.tally, [&] {
                p.load(var_name(v), d.in[static_cast<std::size_t>(v)].data(), 3,
                       bx.offset.data(), bx.count.data());
              });
            }
            p.munmap();
          });
          d.verify(sh, rank, s, res.tally);
          if (rank == 0) last_step = s;
        };
        // Set-up: populate (step 0) and one warm-up step (step 1).
        Recorder scratch;
        step(scratch, 0, false);
        step(scratch, 1, false);
        if (!run.end_setup(comm)) return;
        run.timed(comm, 2, step);
      });

  // Outside every timing window: the store must scrub clean.
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

  LayerInputs in;
  merge_host_spans(run, in);
  in.user_bytes_written = sh.bytes;
  in.user_bytes_read = sh.bytes;
  {
    auto pool = node->open_pool("_ckpt.pmem");
    const auto rep = pool->check();
    if (!rep.ok()) res.fail("Pool::check: " + rep.issues.front());
    in.space_amp = static_cast<double>(rep.bytes_in_use) / sh.bytes;
  }
  add_trace_layers(res, in);

  // core.remove: one array removal at the checkpoint's live-set size.
  {
    pmemcpy::PMEM p(config(*node));
    p.mmap(kRegion);
    const double t0 = host_now();
    guarded(res.tally, [&] { p.remove(var_name(kVars - 1)); });
    res.add("core.remove.host_ms", (host_now() - t0) * 1e3, "ms");
    p.munmap();
  }
  node.reset();

  ReplayShape rs;
  for (int v = 0; v < kVars; ++v) {
    const auto& bx = sh.box(v, 0);
    rs.keys.push_back(pmemcpy::detail::piece_key(var_name(v), bx));
    rs.bytes.push_back(bx.elements() * sizeof(double));
  }
  rs.piece_bytes = rs.bytes.front();
  add_replay(res, rs);

  // The paper's comparison on the same boxes (shared pmemfs POSIX path and
  // par alltoallv, which no pMEMCPY workload uses).
  const double pw = median(run.untraced.sim[0]);
  const double pr = median(run.untraced.sim[1]);
  const auto [aw, ar] = baseline(miniio::Library::kAdios, sh, last_step, res);
  const auto [nw, nr] = baseline(miniio::Library::kNetcdf4, sh, last_step, res);
  res.add("adios.write_sim_s", aw, "s");
  res.add("adios.read_sim_s", ar, "s");
  res.add("netcdf4.write_sim_s", nw, "s");
  res.add("netcdf4.read_sim_s", nr, "s");
  res.add("speedup.write_vs_adios", pw > 0 ? aw / pw : 0.0, "x");
  res.add("speedup.read_vs_adios", pr > 0 ? ar / pr : 0.0, "x");
  res.add("speedup.write_vs_netcdf4", pw > 0 ? nw / pw : 0.0, "x");
  res.add("speedup.read_vs_netcdf4", pr > 0 ? nr / pr : 0.0, "x");
}

}  // namespace pb
