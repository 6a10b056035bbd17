#include "power/msr.h"

#include <sstream>

namespace pviz::power {

int MsrFile::slot(std::uint32_t address) {
  switch (address) {
    case kMsrRaplPowerUnit: return 0;
    case kMsrPkgPowerLimit: return 1;
    case kMsrPkgEnergyStatus: return 2;
    case kMsrAperf: return 3;
    case kMsrMperf: return 4;
    default: return -1;
  }
}

MsrFile::MsrFile() {
  // RAPL units register: power unit 2^-3 W (0.125 W), energy unit
  // 2^-14 J (~61 uJ), time unit 2^-10 s — the common Broadwell values.
  rawWrite(kMsrRaplPowerUnit, (0x3ull) | (0xEull << 8) | (0xAull << 16));
}

std::uint64_t MsrFile::read(std::uint32_t address) const {
  if (!isAllowed(address)) {
    std::ostringstream os;
    os << "msr-safe: read of MSR 0x" << std::hex << address << " denied";
    throw MsrAccessError(os.str());
  }
  return rawRead(address);
}

void MsrFile::write(std::uint32_t address, std::uint64_t value) {
  if (!isAllowed(address)) {
    std::ostringstream os;
    os << "msr-safe: write of MSR 0x" << std::hex << address << " denied";
    throw MsrAccessError(os.str());
  }
  rawWrite(address, value);
}

std::uint64_t MsrFile::rawRead(std::uint32_t address) const {
  const int i = slot(address);
  return i < 0 ? 0 : registers_[static_cast<std::size_t>(i)];
}

void MsrFile::rawWrite(std::uint32_t address, std::uint64_t value) {
  const int i = slot(address);
  if (i < 0) {
    std::ostringstream os;
    os << "no simulated MSR 0x" << std::hex << address;
    throw MsrAccessError(os.str());
  }
  registers_[static_cast<std::size_t>(i)] = value;
}

}  // namespace pviz::power
