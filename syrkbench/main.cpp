// SYRK benchmark program.
//
//   syrkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the traced replay and reports the per-layer metrics. Every result is
// checked against the syrk_reference oracle. The last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"};
// the line before it carries the host tag and annotations. The exit code is
// 0 only when every request succeeded and matched the oracle.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "matrix/ukernel.hpp"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "syrkbench: " << why
            << "\nusage: syrkbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--spans-out <file>]\nworkloads:";
  for (const std::string& n : syrkbench::workload_names()) std::cerr << ' ' << n;
  std::cerr << '\n';
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have[1] = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        have[2] = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
        have[3] = true;
      } else if (flag == "--spans-out") {
        a.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  syrkbench::Report report;
  try {
    syrkbench::Workload w;
    try {
      w = syrkbench::make_workload(args.workload, args.seed);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
    if (args.trace) {
      syrkbench::run_traced(w, args.seconds, args.spans_out, report);
    } else {
      syrkbench::run_timed(w, args.seconds, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "syrkbench: " << e.what() << '\n';
    return 1;
  }

  bool finite = true;
  for (const auto& m : report.metrics) finite = finite && std::isfinite(m.value);
  const bool correct = report.failed == 0 && report.attempted > 0 &&
                       report.protocol_ok && finite;

  // Host tag: numbers from a generic micro-kernel build are not comparable
  // with numbers from a native one.
  const unsigned nproc = std::thread::hardware_concurrency();
  const char* ukernel = parsyrk::kern::active_ukernel().name;
  std::cout << "syrkbench " << args.workload << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << " nproc=" << nproc
            << " build=" << SYRKBENCH_BUILD_TYPE << " ukernel=" << ukernel
            << '\n';
  for (const auto& m : report.metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << ' ' << m.unit
              << '\n';
  }

  std::ostringstream detail;
  detail << "{\"workload\":" << quoted(args.workload)
         << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
         << ",\"host\":{\"nproc\":" << nproc
         << ",\"build\":" << quoted(SYRKBENCH_BUILD_TYPE)
         << ",\"ukernel\":" << quoted(ukernel)
         << ",\"ranks\":" << syrkbench::kProcs << "},\"notes\":{";
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    detail << (i ? "," : "") << quoted(report.notes[i].first) << ':'
           << report.notes[i].second;
  }
  detail << "}}";
  std::cout << detail.str() << '\n';

  std::ostringstream result;
  result << "{\"correct\":" << (correct ? "true" : "false")
         << ",\"attempted\":" << report.attempted
         << ",\"failed\":" << report.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    result << (i ? "," : "") << quoted(m.name) << ":{\"value\":"
           << number(std::isfinite(m.value) ? m.value : 0.0)
           << ",\"unit\":" << quoted(m.unit) << '}';
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}
