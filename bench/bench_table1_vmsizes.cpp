// Reproduces Table I of the paper: the Windows Azure VM configurations
// available for web and worker role instances, as encoded in the fabric.
#include <cstdio>

#include "bench_util.hpp"
#include "fabric/vm_size.hpp"

int main(int argc, char** argv) {
  benchutil::require_known_flags(argc, argv, {"--csv"});
  const bool csv = benchutil::flag_set(argc, argv, "--csv");
  std::printf("AzureBench Table I — VM configurations\n\n");
  benchutil::Table table(
      {"VM Size", "CPU Cores", "Memory", "Storage", "NIC (model)"});
  for (const auto size :
       {fabric::VmSize::kExtraSmall, fabric::VmSize::kSmall,
        fabric::VmSize::kMedium, fabric::VmSize::kLarge,
        fabric::VmSize::kExtraLarge}) {
    const auto spec = fabric::spec_of(size);
    char cores[16];
    if (spec.cpu_cores < 1.0) {
      std::snprintf(cores, sizeof cores, "Shared");
    } else {
      std::snprintf(cores, sizeof cores, "%.0f", spec.cpu_cores);
    }
    char memory[32];
    if (spec.memory_mb < 1024) {
      std::snprintf(memory, sizeof memory, "%lld MB",
                    static_cast<long long>(spec.memory_mb));
    } else {
      std::snprintf(memory, sizeof memory, "%.2f GB",
                    static_cast<double>(spec.memory_mb) / 1024.0);
    }
    table.add_row({std::string(spec.name), cores, memory,
                   std::to_string(spec.local_storage_gb) + " GB",
                   benchutil::fmt(spec.nic_mbps, 0) + " Mbps"});
  }
  if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  return 0;
}
