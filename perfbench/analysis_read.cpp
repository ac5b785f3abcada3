// analysis_read — an analysis code reading slices of a stored checkpoint.
//
// Set-up writes one ~0.25 GiB checkpoint (kVars variables of about kN^3
// doubles), each variable as 64 pieces (4x4x4 blocks, 16 per rank), with the
// hierarchical layout: the tree engine on pmemfs.  That checkpoint write is
// the workload's write phase, measured once per set-up.  Each timed step,
// every rank loads an x-plane, a y-plane and a half-extent subvolume; the
// variable and position of each are independent seeded random picks.
// Each rank's handle has a 32 MiB read cache; the checkpoint is 8x that.
//
// Why: core hyperslab intersection and partial decode, the read cache,
// tree-engine lookup and pmemfs mappings do the work — all of which ckpt
// bypasses.  setup_s also covers the tree engine's write path.
#include "bench.hpp"

#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/workload/domain3d.hpp>

#include <cstdio>
#include <memory>

namespace pb {

namespace {

using pmemcpy::Box;
using pmemcpy::Dimensions;
using pmemcpy::PmemNode;
namespace wk = pmemcpy::wk;

constexpr int kVars = 4;
constexpr std::size_t kN = 204;     ///< x and y extent
constexpr std::size_t kBlocks = 4;  ///< pieces per dimension
constexpr std::size_t kPieces = kBlocks * kBlocks * kBlocks;
constexpr std::size_t kCacheBytes = 32ull << 20;
constexpr const char* kRegion = "/analysis";

std::string var_name(int v) { return "ckpt/var" + std::to_string(v); }

/// The checkpoint's shape.  The z extent is kN-2 .. kN+2 by seed, so every
/// seed is a distinct input of (nearly) the same cost, as in ckpt.
struct Shape {
  Dimensions global;
  int vbase = 0;  ///< generator variable id of variable 0

  explicit Shape(std::uint64_t seed)
      : global{kN, kN, kN - 2 + mix(seed, 0xA5) % 5},
        vbase(static_cast<int>((mix(seed, 0xA4) % 4096) * 8)) {}

  [[nodiscard]] int vid(int v) const { return vbase + v; }
  [[nodiscard]] double bytes() const {
    return kVars * static_cast<double>(global[0] * global[1] * global[2]) *
           sizeof(double);
  }
  /// Piece @p b (0..63) of the 4x4x4 block grid; rank b % kRanks owns it.
  [[nodiscard]] Box piece(std::size_t b) const {
    Dimensions off(3), cnt(3);
    const std::size_t idx[3] = {b / 16, b / 4 % 4, b % 4};
    for (std::size_t d = 0; d < 3; ++d) {
      off[d] = idx[d] * global[d] / kBlocks;
      cnt[d] = (idx[d] + 1) * global[d] / kBlocks - off[d];
    }
    return Box(off, cnt);
  }
  [[nodiscard]] Dimensions half() const {
    return {global[0] / 2, global[1] / 2, global[2] / 2};
  }
  /// Payload bytes one rank loads per step.
  [[nodiscard]] double step_read_bytes() const {
    const auto h = half();
    return static_cast<double>(2 * kN * global[2] + h[0] * h[1] * h[2]) *
           sizeof(double);
  }
};

/// The three slices one rank reads at one step.
struct Pick {
  int xv = 0, yv = 0, sv = 0;  ///< variables
  Box x, y, sub;
};

/// Independent seeded picks: for each slice a variable and a position,
/// uniform over the checkpoint.
Pick pick(const Shape& sh, std::uint64_t seed, int rank, std::size_t step) {
  const std::uint64_t h = mix(mix(seed, step), static_cast<std::uint64_t>(rank) + 77);
  const auto& g = sh.global;
  Pick p;
  p.xv = static_cast<int>(mix(h, 10) % kVars);
  p.x = Box({mix(h, 11) % g[0], 0, 0}, {1, g[1], g[2]});
  p.yv = static_cast<int>(mix(h, 20) % kVars);
  p.y = Box({0, mix(h, 21) % g[1], 0}, {g[0], 1, g[2]});
  p.sv = static_cast<int>(mix(h, 30) % kVars);
  const Dimensions cnt = sh.half();
  Dimensions off(3);
  for (std::size_t d = 0; d < 3; ++d) off[d] = mix(h, 31 + d) % (g[d] - cnt[d] + 1);
  p.sub = Box(off, cnt);
  return p;
}

pmemcpy::Config config(PmemNode& node) {
  pmemcpy::Config cfg;
  cfg.node = &node;
  cfg.layout = pmemcpy::Layout::kHierarchical;
  cfg.read_cache_bytes = kCacheBytes;
  return cfg;
}

}  // namespace

void run_analysis_read(const Args& a, Result& res) {
  Run run(a);
  const Shape sh(a.seed);
  {
    Digest dg;
    for (std::size_t s = 0; s < 16; ++s) {
      for (int r = 0; r < kRanks; ++r) {
        const Pick p = pick(sh, a.seed, r, s);
        for (const auto* b : {&p.x, &p.y, &p.sub}) dg.add(pmemcpy::box_to_string(*b));
        for (int v : {p.xv, p.yv, p.sv}) dg.add(static_cast<std::uint64_t>(sh.vid(v)));
      }
    }
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "analysis_read: %d vars of %zux%zux%zu doubles (%.1f MiB) as "
                  "4x4x4 pieces, %zu MiB cache/rank, op-stream digest (first "
                  "16 steps) %016llx",
                  kVars, sh.global[0], sh.global[1], sh.global[2],
                  sh.bytes() / 1048576.0, kCacheBytes >> 20,
                  static_cast<unsigned long long>(dg.value()));
    res.note(buf);
  }

  auto node = run.repeat_setups(
      [&] {
        PmemNode::Options o;
        o.pool_fraction = 0.02;
        o.capacity = static_cast<std::size_t>(sh.bytes() * 1.6) + (64ull << 20);
        return std::make_unique<PmemNode>(o);
      },
      [&](par::Comm& comm, PmemNode& n) {
        const int rank = comm.rank();
        auto& hs = run.host_spans[static_cast<std::size_t>(rank)];
        pmemcpy::PMEM p(config(n));
        p.mmap(kRegion, comm);
        // The checkpoint write: each rank stores its 16 pieces of every
        // variable, generated before the phase.
        {
          std::vector<std::vector<double>> pieces;
          for (int v = 0; v < kVars; ++v) {
            for (std::size_t b = static_cast<std::size_t>(rank); b < kPieces; b += kRanks) {
              wk::fill_box(pieces.emplace_back(), sh.vid(v), sh.global, sh.piece(b));
            }
          }
          run.setup_phase(comm, Phase::kWrite, [&](bool spans) {
            auto piece_data = pieces.begin();
            for (int v = 0; v < kVars; ++v) {
              guarded(res.tally, [&] { p.alloc<double>(var_name(v), sh.global); });
              for (std::size_t b = static_cast<std::size_t>(rank); b < kPieces; b += kRanks) {
                const Box bx = sh.piece(b);
                const double* data = (piece_data++)->data();
                HostSpan h(hs.put, spans);
                guarded(res.tally, [&] {
                  p.store(var_name(v), data, 3, bx.offset.data(), bx.count.data());
                });
              }
            }
          });
        }
        std::vector<double> xs, ys, sub;
        const StepFn step = [&](Recorder& rec, std::size_t s, bool record) {
          const Pick pk = pick(sh, a.seed, rank, s);
          const bool spans = run.spans_on(rec, record);
          xs.assign(pk.x.elements(), 0.0);
          ys.assign(pk.y.elements(), 0.0);
          sub.assign(pk.sub.elements(), 0.0);
          rec.run(comm, Phase::kRead, record, [&] {
            auto load = [&](int v, const Box& bx, std::vector<double>& out) {
              HostSpan h(hs.get, spans);
              guarded(res.tally, [&] {
                p.load(var_name(v), out.data(), 3, bx.offset.data(), bx.count.data());
              });
            };
            load(pk.xv, pk.x, xs);
            load(pk.yv, pk.y, ys);
            load(pk.sv, pk.sub, sub);
          });
          count_verify(res.tally, wk::verify_box(xs, sh.vid(pk.xv), sh.global, pk.x));
          count_verify(res.tally, wk::verify_box(ys, sh.vid(pk.yv), sh.global, pk.y));
          count_verify(res.tally, wk::verify_box(sub, sh.vid(pk.sv), sh.global, pk.sub));
        };
        Recorder scratch;
        step(scratch, 0, false);  // warm-up: fills the read cache
        const bool go = run.end_setup(comm);
        if (go) run.timed(comm, 1, step);
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

  LayerInputs in;
  merge_host_spans(run, in);
  in.user_bytes_written = sh.bytes();
  in.user_bytes_read = sh.step_read_bytes() * kRanks;
  {
    // The tree layout keeps no pool: the store's space amplification is the
    // filesystem's used blocks over the live user bytes.
    auto& fs = node->fs();
    const double used = static_cast<double>(fs.total_blocks() - fs.free_blocks()) *
                        pmemcpy::fs::kBlockSize;
    in.space_amp = used / sh.bytes();
  }
  add_trace_layers(res, in);

  // core.remove: one variable's removal at the checkpoint's size.
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
  const Box b0 = sh.piece(0);
  for (int v = 0; v < kVars; ++v) {
    rs.keys.push_back(pmemcpy::detail::piece_key(var_name(v), b0));
    rs.bytes.push_back(b0.elements() * sizeof(double));
  }
  rs.piece_bytes = b0.elements() * sizeof(double);
  add_replay(res, rs);
  add_baselines_absent(res);
}

}  // namespace pb
