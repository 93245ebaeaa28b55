// The process's peak resident set, for the footprint guards
// (materialize_footprint, setup_footprint), each run in a process of its own.
#pragma once

#include <cstddef>
#include <fstream>
#include <optional>
#include <string>

/// VmHWM in KiB, from /proc/self/status; empty where there is none to read.
inline std::optional<std::size_t> vm_hwm_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.starts_with("VmHWM:")) return std::stoul(line.substr(6));
  return std::nullopt;
}
