// lpt_perfbench: drives one workload of the repository benchmark through
// the layers' public entry points and prints one JSON object (metrics,
// checks, provenance) as the last line of stdout.  perfbench/run.py builds
// this binary, runs it once per workload, and turns its output into the
// benchmark's result line.
//
// Usage: lpt_perfbench --workload NAME --seed N --seconds S
//                      [--trace 0|1] [--trace-out PATH]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <new>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "util/cli.hpp"

// Counting global allocator: the service workload asserts that its warmed
// serve path allocates nothing (service.steady_allocs).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void put_metrics(std::string& out, const char* key,
                 const std::map<std::string, Report::Metric>& m) {
  out += "\"";
  out += key;
  out += "\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : m) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    out += "\"" + json_escape(name) + "\":{\"value\":" + buf +
           ",\"unit\":\"" + json_escape(metric.unit) + "\"}";
  }
  out += '}';
}

std::string to_json(const Options& opt, const Report& rep) {
  std::string out = "{\"workload\":\"" + json_escape(opt.workload) + "\",";
  out += "\"attempted\":" + std::to_string(rep.attempted) + ",";
  out += "\"failed\":" + std::to_string(rep.failed) + ",";
  out += "\"errors\":[";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    if (i) out += ',';
    out += "\"" + json_escape(rep.errors[i]) + "\"";
  }
  out += "],";
  put_metrics(out, "e2e", rep.e2e);
  out += ',';
  put_metrics(out, "layer", rep.layer);
  out += ',';
  put_metrics(out, "info", rep.info);
  out += ",\"provenance\":{";
  out += "\"compiler\":\"" + json_escape(PERFBENCH_COMPILER) + "\",";
  out += "\"flags\":\"" + json_escape(PERFBENCH_FLAGS) + "\",";
  out += "\"build_type\":\"" + json_escape(PERFBENCH_BUILD_TYPE) + "\",";
  out += "\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) + ",";
  out += "\"cpu_model\":\"" + json_escape(cpu_model()) + "\"}}";
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  lpt::util::Cli cli(argc, argv);
  Options opt;
  opt.workload = cli.get("workload", "");
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opt.seconds = cli.get_double("seconds", 10.0);
  opt.trace = cli.get_int("trace", 0) != 0;
  opt.trace_out = cli.get("trace-out", "perfbench_trace.json");

  Report rep;
  try {
    if (opt.workload == "lowload-n15" || opt.workload == "highload-n15") {
      run_engine_workload(opt, rep);
    } else if (opt.workload == "shard-socket") {
      run_shard_workload(opt, rep);
    } else if (opt.workload == "service-open") {
      run_service_workload(opt, rep);
    } else {
      std::fprintf(stderr, "unknown --workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] aborted: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", to_json(opt, rep).c_str());
  return 0;
}
