#include "hw/node_hardware.h"

namespace wattdb::hw {

NodeHardware::NodeHardware(NodeId id, const NodeHardwareSpec& spec,
                           DiskId first_disk_id)
    : id_(id),
      spec_(spec),
      cpu_("node" + std::to_string(id.value()) + ".cpu", spec.cpu_cores) {
  uint32_t next = first_disk_id.value();
  for (int i = 0; i < spec.num_hdd; ++i) {
    disks_.push_back(std::make_unique<Disk>(
        DiskId(next), id, DiskSpec::Hdd(),
        "node" + std::to_string(id.value()) + ".hdd" + std::to_string(i)));
    ++next;
  }
  for (int i = 0; i < spec.num_ssd; ++i) {
    disks_.push_back(std::make_unique<Disk>(
        DiskId(next), id, DiskSpec::Ssd(),
        "node" + std::to_string(id.value()) + ".ssd" + std::to_string(i)));
    ++next;
  }
}

Disk* NodeHardware::LeastLoadedDisk(SimTime now) {
  Disk* best = disks_[0].get();
  SimTime best_backlog = best->resource().Backlog(now);
  for (size_t i = 1; i < disks_.size(); ++i) {
    const SimTime backlog = disks_[i]->resource().Backlog(now);
    if (backlog < best_backlog) {
      best = disks_[i].get();
      best_backlog = backlog;
    }
  }
  return best;
}

double NodeHardware::PowerIn(const PowerModel& model, SimTime from,
                             SimTime to) const {
  return model.NodeWatts(power_state_, CpuUtilizationIn(from, to));
}

void NodeHardware::Prune(SimTime before) {
  cpu_.Prune(before);
  for (auto& d : disks_) d->resource().Prune(before);
}

}  // namespace wattdb::hw
