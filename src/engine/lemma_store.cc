#include "engine/lemma_store.hpp"

#include <algorithm>
#include <tuple>

#include "runtime/stats.hpp"

namespace lacon {

LemmaStore::LemmaStore()
    : hits_(&runtime::Stats::global().counter("lemmas.hits")),
      misses_(&runtime::Stats::global().counter("lemmas.misses")),
      published_(&runtime::Stats::global().counter("lemmas.published")) {}

std::optional<ValenceInfo> LemmaStore::lookup(Signature sig, int budget) {
  Shard& shard = shard_for(sig);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(sig);
  if (it == shard.map.end() || it->second.lookahead > budget) {
    misses_->increment();
    return std::nullopt;
  }
  hits_->increment();
  ValenceInfo info;
  info.v0 = it->second.v0;
  info.v1 = it->second.v1;
  info.exact = true;
  return info;
}

void LemmaStore::publish(Signature sig, int lookahead,
                         const ValenceInfo& info) {
  if (!info.exact || lookahead < 0) return;
  Shard& shard = shard_for(sig);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (merge_locked(shard, sig, lookahead, info) && recording_.load()) {
    shard.unpersisted.push_back(sig);
  }
}

bool LemmaStore::merge_locked(Shard& shard, Signature sig, int lookahead,
                              const ValenceInfo& info) {
  auto [it, inserted] = shard.map.try_emplace(
      sig, Entry{lookahead, info.v0, info.v1});
  if (inserted) {
    published_->increment();
    return true;
  }
  Entry& e = it->second;
  if (e.v0 != info.v0 || e.v1 != info.v1) return false;  // collision
  if (lookahead >= e.lookahead) return false;
  e.lookahead = lookahead;
  return true;
}

std::vector<LemmaStore::Fact> LemmaStore::export_facts() const {
  std::vector<Fact> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [sig, e] : shard.map) {
      out.push_back(Fact{sig.first, sig.second, e.lookahead, e.v0, e.v1});
    }
  }
  std::sort(out.begin(), out.end(), [](const Fact& a, const Fact& b) {
    return std::tie(a.sig_hi, a.sig_lo) < std::tie(b.sig_hi, b.sig_lo);
  });
  return out;
}

void LemmaStore::import_facts(const std::vector<Fact>& facts) {
  for (const Fact& f : facts) {
    if (f.lookahead < 0) continue;
    ValenceInfo info;
    info.v0 = f.v0;
    info.v1 = f.v1;
    const Signature sig{f.sig_hi, f.sig_lo};
    Shard& shard = shard_for(sig);
    std::lock_guard<std::mutex> lock(shard.mu);
    merge_locked(shard, sig, f.lookahead, info);
  }
}

std::vector<LemmaStore::Fact> LemmaStore::drain_unpersisted() {
  std::vector<Fact> out;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::sort(shard.unpersisted.begin(), shard.unpersisted.end());
    shard.unpersisted.erase(
        std::unique(shard.unpersisted.begin(), shard.unpersisted.end()),
        shard.unpersisted.end());
    for (const Signature& sig : shard.unpersisted) {
      const Entry& e = shard.map.at(sig);
      out.push_back(Fact{sig.first, sig.second, e.lookahead, e.v0, e.v1});
    }
    shard.unpersisted.clear();
  }
  std::sort(out.begin(), out.end(), [](const Fact& a, const Fact& b) {
    return std::tie(a.sig_hi, a.sig_lo) < std::tie(b.sig_hi, b.sig_lo);
  });
  return out;
}

void LemmaStore::requeue(const std::vector<Fact>& facts) {
  for (const Fact& f : facts) {
    const Signature sig{f.sig_hi, f.sig_lo};
    Shard& shard = shard_for(sig);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.unpersisted.push_back(sig);
  }
}

std::size_t LemmaStore::size() const noexcept {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace lacon
