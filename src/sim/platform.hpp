// Models of the paper's execution platforms.
//
// The paper runs on the Hitachi HA8000 supercomputer (University of Tokyo)
// and two Grid'5000 Sophia-Antipolis clusters (Suno, Helios).  We obviously
// cannot rent them.  Independent walkers never talk to each other, so a
// platform's effect on *independent multi-walk* performance reduces to
// three scalars per platform, which we model here:
//
//   * relative per-core speed (clock/IPC scaling of the walk itself),
//   * job startup overhead (launching k processes; grows mildly with k),
//   * completion-detection latency (noticing the first finisher and
//     stopping; the paper's only communication).
//
// Per-node speed jitter models the heterogeneity of a shared grid (the
// paper's perfect-square anomaly at 128/256 cores, where sub-second runs
// start to be dominated by "some other mechanisms", is reproduced by the
// overhead terms dwarfing the shrunken compute time).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cspls::sim {

struct PlatformModel {
  std::string name;
  std::size_t cores_per_node = 1;
  std::size_t max_cores = 1;
  /// Walk execution speed relative to the measurement host (1.0 = same;
  /// 0.5 = each walk takes twice as long).
  double core_speed = 1.0;
  /// Fixed job-launch overhead in seconds (independent of k).
  double startup_seconds = 0.0;
  /// Additional per-node launch overhead in seconds (k/cores_per_node nodes).
  double per_node_startup_seconds = 0.0;
  /// Latency between the first finisher and global termination, seconds.
  double completion_seconds = 0.0;
  /// Standard deviation of per-node multiplicative speed jitter (0 = none).
  double node_jitter = 0.0;

  /// Total non-compute overhead for a k-core job.
  [[nodiscard]] double overhead_seconds(std::size_t cores) const;
  [[nodiscard]] std::size_t nodes_for(std::size_t cores) const;
};

/// Hitachi HA8000: 952 nodes x 16 cores (4x AMD Opteron 8356, 2.3 GHz).
/// Users get at most 64 nodes (1024 cores); the paper uses up to 256 cores.
[[nodiscard]] PlatformModel ha8000();

/// Grid'5000 Suno (Sophia): 45 Dell PowerEdge R410, 8 cores each (360).
[[nodiscard]] PlatformModel grid5000_suno();

/// Grid'5000 Helios (Sophia): 56 Sun Fire X4100, 4 cores each (224).
[[nodiscard]] PlatformModel grid5000_helios();

/// The core counts the paper's figures sweep.
[[nodiscard]] std::vector<std::size_t> paper_core_grid();

}  // namespace cspls::sim
