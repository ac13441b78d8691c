#pragma once
// Re-runs the calling gtest binary with one extra environment setting and
// a --gtest_filter, for properties that need a second process: the shared
// pool's size, for one, is read once per process.

#include <gtest/gtest.h>

#include <cstdint>
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

/// FNV-1a over `bytes` bytes, continuing from `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

/// The pool-size half of a test that prints "pool threads <n> digest
/// <hex>": re-runs `test` with `child_env`=1 at ARAMS_POOL_THREADS 1 and
/// 4 and expects each child to pass and print this process's `digest`.
/// The test returns before calling this when `child_env` is set.
inline void expect_digest_at_pool_sizes(const std::string& child_env,
                                        const std::string& test,
                                        std::uint64_t digest) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  for (const std::string size : {"1", "4"}) {
    const ChildRun run =
        rerun_self(child_env + "=1 ARAMS_POOL_THREADS=" + size, test);
    EXPECT_EQ(run.status, 0) << run.output;
    EXPECT_NE(run.output.find("pool threads " + size + " digest " + hex +
                              "\n"),
              std::string::npos)
        << run.output;
  }
}

/// Prints the line expect_digest_at_pool_sizes looks for.
inline void print_pool_digest(std::size_t threads, std::uint64_t digest) {
  std::printf("pool threads %zu digest %016llx\n", threads,
              static_cast<unsigned long long>(digest));
}

}  // namespace arams::test
