// perfbench: the PerfSight diagnosis benchmark.
//
//   perfbench --workload <pull_fleet|push_stream|dataplane_int>
//             --seed <n> --seconds <n> --trace <0|1>
//
// Prints one line per metric and, as the last line, one JSON object with
// the keys correct, attempted, failed and metrics.  --trace 0 reports the
// end-to-end metrics; --trace 1 the per-layer ones.  See README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pull_fleet|push_stream|dataplane_int> --seed <n> "
               "--seconds <n> --trace <0|1>\n",
               why);
  return 2;
}

bool parse_u64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &n)) return usage("--seed takes a whole number");
      opt.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &n) || n < 1 || n > 600) {
        return usage("--seconds takes a whole number from 1 to 600");
      }
      opt.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::RunResult r;
  if (opt.workload == "pull_fleet") {
    r = perfbench::run_pull_fleet(opt);
  } else if (opt.workload == "push_stream") {
    r = perfbench::run_push_stream(opt);
  } else if (opt.workload == "dataplane_int") {
    r = perfbench::run_dataplane_int(opt);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  perfbench::print_result(opt, r);
  return 0;
}
