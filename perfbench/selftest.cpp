// Self-test of the benchmark's correctness accounting: a deliberately wrong
// expected value, a missing key and a throwing operation must each be
// counted as a failed op, and a correct read must not be.  Run through
// ctest in the benchmark's build directory, or directly.
#include "bench.hpp"

#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/workload/domain3d.hpp>

#include <cstdio>
#include <stdexcept>

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  namespace wk = pmemcpy::wk;
  pmemcpy::PmemNode::Options o;
  o.capacity = 64ull << 20;
  pmemcpy::PmemNode node(o);
  pmemcpy::Config cfg;
  cfg.node = &node;
  pmemcpy::PMEM p(cfg);
  p.mmap("/selftest.pmem");

  const auto dec = wk::decompose(4096, 1);
  const auto& box = dec.rank_boxes[0];
  std::vector<double> out, in(box.elements());
  wk::fill_box(out, 7, dec.global, box);
  p.store("v", out.data(), 3, box.offset.data(), box.count.data());

  pb::Tally t;
  expect(pb::guarded(t, [&] {
           p.load("v", in.data(), 3, box.offset.data(), box.count.data());
         }),
         "a stored box loads");
  pb::count_verify(t, wk::verify_box(in, 7, dec.global, box));
  expect(t.failed() == 0, "a correct read counts no failure");

  // The same bytes checked against a deliberately wrong expected value
  // (generator variable 8 instead of 7) must count as a mismatch.
  pb::count_verify(t, wk::verify_box(in, 8, dec.global, box));
  expect(t.mismatches.load() == 1, "a wrong expected value is counted");

  // One corrupted element is enough.
  in[in.size() / 2] += 1.0;
  pb::count_verify(t, wk::verify_box(in, 7, dec.global, box));
  expect(t.mismatches.load() == 2, "a single wrong element is counted");

  double x = 0;
  expect(!pb::guarded(t, [&] { p.load("absent", x); }),
         "loading an absent key fails");
  expect(t.missing.load() == 1, "a missing key is counted");
  expect(!pb::guarded(t, [] { throw std::runtime_error("boom"); }),
         "a throwing op fails");
  expect(t.exceptions.load() == 1, "an exception is counted");
  expect(t.attempted.load() == 3 && t.failed() == 4,
         "attempted counts ops, failed counts every failure");

  // The tail statistic keeps 10 samples beyond it.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const auto tl = pb::tail(v);
  expect(tl.percentile == 90 && tl.value == 90.0 && tl.n == 100,
         "p90 of 1..100 is 90 with 10 samples above it");
  expect(pb::median({3, 1, 2}) == 2.0, "median");

  // A byte staged through DRAM fails the traced run's correctness.
  auto layers_correct = [](pmemcpy::trace::Counter c, std::uint64_t n) {
    pb::LayerPhase l;
    l.sim_s = 1.0;
    l.charge[0] = 1.0;
    pb::Recorder untraced, traced;
    traced.layers[0].push_back(l);
    l.counters[static_cast<std::size_t>(c)] = n;
    traced.layers[1].push_back(l);
    pb::LayerInputs in;
    in.untraced = &untraced;
    in.traced = &traced;
    pb::Result r;
    pb::add_trace_layers(r, in);
    return r.correct;
  };
  using C = pmemcpy::trace::Counter;
  expect(layers_correct(C::kCopyStagedBytes, 0), "no staged bytes pass");
  expect(!layers_correct(C::kCopyStagedBytes, 4096), "staged write bytes fail");
  expect(!layers_correct(C::kCopyReadStagedBytes, 1), "staged read bytes fail");

  p.munmap();
  if (failures == 0) std::printf("perfbench selftest: OK\n");
  return failures == 0 ? 0 : 1;
}
