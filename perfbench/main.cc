// LawsDB end-to-end benchmark: one closed-loop client drives a workload
// through the public serving API and prints a readable report followed by
// one JSON result line.
//
//   perfbench --workload <archive_scan|model_serving|archive_ingest>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "driver.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &config.seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &n) || n == 0 || n > 60) {
        return Usage("--seconds must be a whole number from 1 to 60");
      }
      config.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!ParseU64(value, &n) || n > 1) return Usage("--trace must be 0 or 1");
      config.trace = n == 1;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  const laws::Result<std::string> result =
      perfbench::RunBenchmark(config, stdout);
  if (!result.ok()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", result->c_str());
  return 0;
}
