// Fixture evidence: the snapshot codec for the clean/waived cases.
// Persists RelayState (accessor, raw member, restore_ setter, and
// HopStamp::hop through an untyped call result),
// WavedState::seen and TidyState::count through typed receivers.
#include "net/good_state.hpp"

namespace fixture {

void encode_relay(const RelayState& state, Sink& sink) {
  sink.u64(state.packets_sent());
  sink.f64(state.residual_j_);
  sink.u64(state.stamp().hop);
}

void restore_relay(RelayState& state, Source& source) {
  state.restore_queue_depth(source.u64());
}

void encode_waived(const WaivedState& state, Sink& sink) {
  sink.u64(state.seen());
}

void encode_tidy(const TidyState& state, Sink& sink) {
  sink.u64(state.count());
}

}  // namespace fixture
