#include "core/view.hpp"

#include <algorithm>
#include <cassert>

namespace lacon {

bool operator==(const ViewRef& a, const ViewRef& b) noexcept {
  return a.owner == b.owner && a.round == b.round && a.input == b.input &&
         a.prev == b.prev &&
         std::equal(a.obs.begin(), a.obs.end(), b.obs.begin(), b.obs.end());
}

ViewArena::ViewArena(int n) : n_(n), core_("view") {
  assert(n >= 2 && n < 62);
}

ViewId ViewArena::initial(ProcessId owner, Value input) {
  assert(owner >= 0 && owner < n_);
  assert(input >= 0);
  const ViewRef v{owner, 0, input, kNoView, {}};
  return insert(v, content_hash(v), false);
}

ViewId ViewArena::extend(ViewId prev, std::span<const Obs> obs) {
  assert(prev != kNoView);
#ifndef NDEBUG
  for (std::size_t i = 1; i < obs.size(); ++i) {
    assert(obs[i - 1].source <= obs[i].source && "observations must be sorted");
  }
#endif
  const ViewRef p = node(prev);
  const ViewRef v{p.owner, p.round + 1, p.input, prev, obs};
  return insert(v, content_hash(v), false);
}

ViewId ViewArena::restore(const ViewRef& v, std::uint64_t hash) {
  assert(v.owner >= 0 && v.owner < n_);
  assert(hash == content_hash(v) && "hash must be content_hash(v)");
  return insert(v, hash, true);
}

ViewId ViewArena::insert(const ViewRef& v, std::uint64_t h, bool restored) {
  const std::size_t k = v.obs.size();
  const std::size_t words = region_words(n_, k);
  const auto write = [&](std::int64_t* region) {
    region[words - 1] = 0;  // an odd lane count leaves a zero padding lane
    Value* known = reinterpret_cast<std::int32_t*>(region);
    std::int32_t* r = known + n_;
    r[0] = v.owner;
    r[1] = v.round;
    r[2] = v.input;
    r[3] = v.prev;
    r[4] = static_cast<std::int32_t>(k);
    std::copy(v.obs.begin(), v.obs.end(),
              reinterpret_cast<Obs*>(r + ViewRef::kHeadLanes));
    // The known-input lanes: the previous local state's, then the owner's
    // own input, then everything each observed view knows, later
    // observations overriding earlier ones. Every view read here is
    // already published, so its lanes are final.
    if (v.prev == kNoView) {
      std::fill(known, known + n_, kUnknownInput);
    } else {
      const std::span<const Value> from = known_inputs(v.prev);
      std::copy(from.begin(), from.end(), known);
    }
    known[v.owner] = v.input;
    for (const Obs& o : v.obs) {
      if (o.view == kNoView) continue;
      const std::span<const Value> sub = known_inputs(o.view);
      for (int j = 0; j < n_; ++j) {
        if (sub[static_cast<std::size_t>(j)] != kUnknownInput) {
          known[j] = sub[static_cast<std::size_t>(j)];
        }
      }
    }
  };
  return core_.intern(
      h, restored, [&](ViewId id) { return node(id) == v; }, Header{}, words,
      write);
}

std::string ViewArena::to_string(ViewId id) const {
  const ViewRef v = node(id);
  std::string out =
      "p" + std::to_string(v.owner) + "@" + std::to_string(v.round);
  if (v.prev == kNoView) {
    out += "(in=" + std::to_string(v.input) + ")";
    return out;
  }
  out += "<" + to_string(v.prev);
  for (const Obs& o : v.obs) {
    out += ", " + std::to_string(o.source) + ":";
    out += (o.view == kNoView) ? "-" : to_string(o.view);
  }
  return out + ">";
}

}  // namespace lacon
