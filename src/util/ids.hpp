// The two id aliases the planes share: a user is a dense index into a
// shard's per-user slabs, an item is a requested page.
#pragma once

#include <cstdint>

namespace specpf {

using UserId = std::uint32_t;  ///< dense user index in [0, num_users)
using ItemId = std::uint64_t;  ///< requested item (page) id

}  // namespace specpf
