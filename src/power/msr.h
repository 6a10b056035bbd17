// Simulated model-specific register (MSR) file with the msr-safe access
// discipline.
//
// The study reads and writes processor power state through LLNL's
// msr-safe driver, which exposes an allowlisted subset of the MSR space.
// This module reproduces that interface against a simulated register
// file: reads/writes outside the allowlist fail, registers hold 64-bit
// values, and the RAPL registers implement Intel's documented bit
// layouts (SDM vol. 3B) including the 32-bit wrapping energy counter.
#pragma once

#include <array>
#include <cstdint>

#include "util/error.h"

namespace pviz::power {

// Intel RAPL MSR addresses (SDM vol. 3B, table 2-2 / 35-x).
inline constexpr std::uint32_t kMsrRaplPowerUnit = 0x606;
inline constexpr std::uint32_t kMsrPkgPowerLimit = 0x610;
inline constexpr std::uint32_t kMsrPkgEnergyStatus = 0x611;
inline constexpr std::uint32_t kMsrAperf = 0xE8;
inline constexpr std::uint32_t kMsrMperf = 0xE7;

/// Thrown when software touches an MSR outside the msr-safe allowlist.
class MsrAccessError : public Error {
 public:
  using Error::Error;
};

class MsrFile {
 public:
  /// Construct with the default allowlist (RAPL + APERF/MPERF).
  MsrFile();

  std::uint64_t read(std::uint32_t address) const;
  void write(std::uint32_t address, std::uint64_t value);

  /// Raw access for the hardware model's own use — the simulated
  /// "silicon side" of the registers.  The file holds only the
  /// allowlisted registers: a raw read of any other address returns 0
  /// and a raw write to one throws MsrAccessError.
  std::uint64_t rawRead(std::uint32_t address) const;
  void rawWrite(std::uint32_t address, std::uint64_t value);

  bool isAllowed(std::uint32_t address) const { return slot(address) >= 0; }

 private:
  /// Index of `address` in registers_, or -1 when it is off the
  /// allowlist: this switch is both the file's layout and the allowlist.
  static int slot(std::uint32_t address);

  std::array<std::uint64_t, 5> registers_{};
};

}  // namespace pviz::power
