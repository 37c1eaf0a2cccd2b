#include "snap/checkpointer.hpp"

#include <utility>

#include "net/network.hpp"
#include "snap/snapshot.hpp"

namespace imobif::snap {

Checkpointer::Checkpointer(std::string path, double every_sim_s)
    : path_(std::move(path)), every_sim_s_(every_sim_s) {}

void Checkpointer::install(exp::InstanceRun& run) {
  if (every_sim_s_ <= 0.0) return;
  run.set_checkpoint_hook(
      [this](exp::InstanceRun& r) { on_chunk_boundary(r); });
}

void Checkpointer::write_now(exp::InstanceRun& run) {
  save(run, path_);
  ++written_;
  last_time_ = run.network().simulator().now();
}

void Checkpointer::on_chunk_boundary(exp::InstanceRun& run) {
  const sim::Time now = run.network().simulator().now();
  if (!armed_) {
    // First boundary: baseline only, so a fresh run does not checkpoint
    // its (trivially re-creatable) initial state.
    armed_ = true;
    last_time_ = now;
    return;
  }
  if ((now - last_time_).seconds() >= every_sim_s_) write_now(run);
}

}  // namespace imobif::snap
