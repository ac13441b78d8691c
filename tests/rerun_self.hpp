#pragma once
// Re-runs the calling gtest binary with one extra environment setting and
// a --gtest_filter, for properties that need a second process: the shared
// pool's size, for one, is read once per process.

#include <cstdio>
#include <filesystem>
#include <string>

namespace arams::test {

struct ChildRun {
  int status = -1;     ///< pclose status; 0 when every selected test passed
  std::string output;  ///< the child's stdout and stderr
};

/// Runs `<env> <this binary> --gtest_filter=<filter>` through the shell.
inline ChildRun rerun_self(const std::string& env, const std::string& filter) {
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe");
  const std::string cmd =
      env + " '" + exe + "' '--gtest_filter=" + filter + "' 2>&1";
  ChildRun run;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) run.output += buf;
  run.status = ::pclose(pipe);
  return run;
}

}  // namespace arams::test
