#include "net/node_store.hpp"

namespace imobif::net {

NodeStore::Index NodeStore::add(geom::Vec2 position, util::Joules residual) {
  const auto index = static_cast<Index>(count_);
  positions_.push_back(position);
  residuals_.push_back(residual);
  ++count_;
  return index;
}

std::size_t NodeStore::approx_bytes() const {
  return positions_.approx_bytes() + residuals_.approx_bytes();
}

}  // namespace imobif::net
