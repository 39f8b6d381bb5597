#include "runtime/comm.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace numabfs::rt {

Comm::Comm(std::vector<int> world_ranks, int per_node)
    : members_(std::move(world_ranks)),
      per_node_(per_node),
      barrier_(std::make_unique<VBarrier>(static_cast<int>(members_.size()))),
      ptr_slots_(members_.size(), nullptr),
      val_slots_(members_.size(), 0),
      chk_slots_(members_.size(), 0) {
  if (per_node < 1 || members_.size() % static_cast<size_t>(per_node) != 0)
    throw std::invalid_argument(
        "Comm: members per node must divide the member count");
  const int top = members_.empty()
                      ? -1
                      : *std::max_element(members_.begin(), members_.end());
  index_.assign(static_cast<size_t>(top + 1), -1);
  for (size_t i = 0; i < members_.size(); ++i)
    index_[static_cast<size_t>(members_[i])] = static_cast<int>(i);
}

void Comm::retire(int world_rank) {
  assert(index_of(world_rank) >= 0 && "retire: not a member of this comm");
  (void)world_rank;
  barrier_->retire();
}

}  // namespace numabfs::rt
