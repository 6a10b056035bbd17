// Shared plumbing for the per-table / per-figure bench binaries.
//
// Environment knobs (all optional):
//   PVIZ_CACHE=path   characterization cache file (default:
//                     POWERVIZ_PROFILE_CACHE, else
//                     pviz_profile_cache.txt in the CWD)
//   PVIZ_NOCACHE=1    disable the on-disk cache
//   PVIZ_SIZE=N       override the dataset size where a bench has one
//   PVIZ_CYCLES=N     visualization cycles per configuration (default 10)
//   PVIZ_FULL=1       paper-scale rendering (50 cameras at 512^2, all
//                     traced); default samples 8 cameras at 256^2 and
//                     extrapolates the per-camera phases
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/study.h"
#include "util/exec_context.h"

namespace pviz::benchutil {

inline int envInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

inline bool envFlag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline core::StudyConfig defaultStudyConfig() {
  core::StudyConfig config;
  config.cycles = envInt("PVIZ_CYCLES", 10);
  config.params.cameraCount = 50;  // the paper's image database
  config.params.imageWidth = 512;
  config.params.imageHeight = 512;
  // Default: trace 8 of the 50 cameras and extrapolate the per-camera
  // phases; PVIZ_FULL=1 traces all 50.
  config.params.sampledCameraCount = envFlag("PVIZ_FULL") ? 0 : 8;
  if (!envFlag("PVIZ_NOCACHE")) {
    const char* cache = std::getenv("PVIZ_CACHE");
    if (cache == nullptr) cache = std::getenv("POWERVIZ_PROFILE_CACHE");
    config.cachePath = cache != nullptr ? cache : "pviz_profile_cache.txt";
  }
  return config;
}

inline void printBanner(const std::string& what, const std::string& paper) {
  std::cout << "==================================================================\n"
            << what << '\n'
            << "reproduces: " << paper << '\n'
            << "machine: modeled " << arch::MachineDescription{}.name << '\n'
            << "==================================================================\n";
}

}  // namespace pviz::benchutil
