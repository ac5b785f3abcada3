// pMEMCPY benchmark driver.
//
//   perfbench --workload ckpt|small_vars|analysis_read --seed N
//             --seconds S --trace 0|1
//
// Prints human-readable lines (prefixed '#', then one metric per line) and,
// as its last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones.  See README.md in this directory.
#include "bench.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ckpt|small_vars|analysis_read --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

/// Whole decimal number in [lo, hi], or usage().
unsigned long long parse_uint(const char* s, unsigned long long lo,
                              unsigned long long hi, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v < lo || v > hi ||
      s[0] == '-') {
    usage(what);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + opt).c_str());
    const char* val = argv[++i];
    if (opt == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (opt == "--seed") {
      a.seed = parse_uint(val, 0, ~0ull, "bad --seed");
    } else if (opt == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(val, 1, 3600, "bad --seconds"));
    } else if (opt == "--trace") {
      a.trace = parse_uint(val, 0, 1, "bad --trace") == 1;
    } else {
      usage(("unknown option " + opt).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  try {
    pb::Result r;
    if (a.workload == "ckpt") {
      pb::run_ckpt(a, r);
    } else if (a.workload == "small_vars") {
      pb::run_small_vars(a, r);
    } else if (a.workload == "analysis_read") {
      pb::run_analysis_read(a, r);
    } else {
      usage(("unknown workload " + a.workload).c_str());
    }
    pb::print_result(a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
