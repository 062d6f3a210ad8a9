#include "models/msgpass/msgpass_model.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "util/permutations.hpp"
#include "util/simd.hpp"

namespace lacon {

std::int64_t pack_message(ProcessId sender, ProcessId receiver, ViewId view) {
  return (static_cast<std::int64_t>(sender) << 40) |
         (static_cast<std::int64_t>(receiver) << 32) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(view));
}

ProcessId message_sender(std::int64_t packed) {
  return static_cast<ProcessId>(packed >> 40);
}

ProcessId message_receiver(std::int64_t packed) {
  return static_cast<ProcessId>((packed >> 32) & 0xff);
}

ViewId message_view(std::int64_t packed) {
  return static_cast<ViewId>(packed & 0xffffffffLL);
}

namespace {

// All layer actions of the permutation layering for n processes.
std::vector<Schedule> build_schedules(int n) {
  std::vector<Schedule> out;
  const std::vector<Permutation> perms = all_permutations(n);

  // Type 1: full sequential permutations.
  for (const Permutation& p : perms) {
    Schedule s;
    for (ProcessId q : p) s.push_back(SchedGroup{q, -1});
    out.push_back(std::move(s));
  }
  // Type 2: one process skips the layer.
  for (const Permutation& p : all_drop_last(n)) {
    Schedule s;
    for (ProcessId q : p) s.push_back(SchedGroup{q, -1});
    out.push_back(std::move(s));
  }
  // Type 3: one adjacent concurrent pair. The pair is unordered; enumerate
  // each once by requiring p[k] < p[k+1].
  for (const Permutation& p : perms) {
    for (int k = 0; k + 1 < n; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      if (p[ku] > p[ku + 1]) continue;
      Schedule s;
      for (int pos = 0; pos < n; ++pos) {
        const auto posu = static_cast<std::size_t>(pos);
        if (pos == k) {
          s.push_back(SchedGroup{p[posu], p[posu + 1]});
          ++pos;  // consumed two entries
        } else {
          s.push_back(SchedGroup{p[posu], -1});
        }
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace

MsgPassModel::MsgPassModel(int n, const DecisionRule& rule,
                           std::vector<std::vector<Value>> initial_inputs)
    : TransitEnvModel(n, rule, std::move(initial_inputs)),
      schedules_(build_schedules(n)) {}

void take_mailbox(std::vector<std::int64_t>& transit, ProcessId i,
                  std::vector<Obs>& obs) {
  obs.clear();
  std::size_t kept = 0;
  for (std::size_t r = 0; r < transit.size(); ++r) {
    const std::int64_t m = transit[r];
    if (message_receiver(m) == i) {
      obs.push_back(Obs{message_sender(m), message_view(m)});
    } else {
      transit[kept++] = m;
    }
  }
  transit.resize(kept);
  std::sort(obs.begin(), obs.end(), [](const Obs& l, const Obs& r) {
    return l.source != r.source ? l.source < r.source : l.view < r.view;
  });
}

StateId MsgPassModel::apply_schedule(StateId x, const Schedule& schedule) {
  SuccessorBuilder b;
  return apply_schedule(b, x, schedule);
}

StateId MsgPassModel::apply_schedule(SuccessorBuilder& b, StateId x,
                                     const Schedule& schedule) {
  const StateRef s = state(x);
  // The in-transit multiset is the builder's env.
  b.start(s);
  std::vector<std::int64_t>& transit = b.next.env;
  std::vector<ViewId>& locals = b.next.locals;
  std::vector<Value>& decisions = b.next.decisions;

  auto do_phase_update = [&](ProcessId i, std::span<const Obs> obs) {
    const auto iu = static_cast<std::size_t>(i);
    const ViewId view = views().extend(locals[iu], obs);
    locals[iu] = view;
    decisions[iu] = updated_decision(i, decisions[iu], view);
  };
  // The message content of a phase is the sender's view at the *start* of
  // the phase — the exact analogue of the shared-memory local phase, where
  // the (at most one) write precedes the reads and therefore carries the
  // pre-phase state. This is what makes the paper's similarity-chain claims
  // of Section 5.1 hold: with post-delivery content, a re-ordered pair would
  // change the payloads received by every later-scheduled process.
  auto do_sends = [&](ProcessId i, ViewId pre_phase_view) {
    for (ProcessId dest = 0; dest < n(); ++dest) {
      if (dest == i) continue;
      transit.push_back(pack_message(i, dest, pre_phase_view));
    }
  };

  std::vector<Obs>& obs_a = b.obs[0];
  std::vector<Obs>& obs_b = b.obs[1];
  for (const SchedGroup& group : schedule) {
    const ViewId pre_a = locals[static_cast<std::size_t>(group.a)];
    if (!group.pair()) {
      take_mailbox(transit, group.a, obs_a);
      do_phase_update(group.a, obs_a);
      do_sends(group.a, pre_a);
    } else {
      // Concurrent pair: both receive before either sends.
      const ViewId pre_b = locals[static_cast<std::size_t>(group.b)];
      take_mailbox(transit, group.a, obs_a);
      take_mailbox(transit, group.b, obs_b);
      do_phase_update(group.a, obs_a);
      do_phase_update(group.b, obs_b);
      do_sends(group.a, pre_a);
      do_sends(group.b, pre_b);
    }
  }

  std::sort(transit.begin(), transit.end());
  return intern_canonical(b.next);
}

bool TransitEnvModel::agree_modulo(StateId x, StateId y, ProcessId j) const {
  const StateRef sx = state(x);
  const StateRef sy = state(y);
  const auto nn = static_cast<std::size_t>(n());
  const auto skip = static_cast<std::size_t>(j);
  if (!simd::lanes_equal_skip(sx.locals.data(), sy.locals.data(), nn, skip) ||
      !simd::lanes_equal_skip(sx.decisions.data(), sy.decisions.data(), nn,
                              skip)) {
    return false;
  }
  // Both encodings are sorted, so a filtered linear comparison suffices.
  auto it_x = sx.env.begin();
  auto it_y = sy.env.begin();
  while (true) {
    while (it_x != sx.env.end() && message_receiver(*it_x) == j) ++it_x;
    while (it_y != sy.env.end() && message_receiver(*it_y) == j) ++it_y;
    if (it_x == sx.env.end() || it_y == sy.env.end()) break;
    if (*it_x != *it_y) return false;
    ++it_x;
    ++it_y;
  }
  return it_x == sx.env.end() && it_y == sy.env.end();
}

void TransitEnvModel::fingerprint_row_into(StateId x,
                                           std::uint64_t* out) const {
  // The mailbox masking makes the env contribution j-dependent, so the
  // one-pass lane kernel of the base class does not apply; the row is still
  // published in one batch, just hashed per erased coordinate.
  const StateRef s = state(x);
  for (ProcessId j = 0; j < n(); ++j) {
    std::uint64_t h = 0x73696d666970ULL;  // same seed as the base fingerprint
    std::uint64_t kept = 0;
    for (std::int64_t m : s.env) {
      if (message_receiver(m) == j) continue;
      h = hash_combine(h, static_cast<std::uint64_t>(m));
      ++kept;
    }
    // Trailing length tag: equal filtered sequences (content and count) are
    // exactly what agree_modulo's filtered linear comparison accepts.
    h = hash_combine(h, kept);
    for (ProcessId i = 0; i < n(); ++i) {
      if (i == j) continue;
      const auto idx = static_cast<std::size_t>(i);
      h = hash_combine(h, static_cast<std::uint64_t>(s.locals[idx]));
      h = hash_combine(h, static_cast<std::uint64_t>(s.decisions[idx]));
    }
    out[static_cast<std::size_t>(j)] = h;
  }
}

std::string TransitEnvModel::env_to_string(StateId x) const {
  std::string out;
  for (std::int64_t m : state(x).env) {
    out += std::to_string(message_sender(m));
    out += "->";
    out += std::to_string(message_receiver(m));
    out += ':';
    out += views().to_string(message_view(m));
    out += ',';
  }
  return out;
}

bool TransitEnvModel::env_well_formed(std::span<const std::int64_t> env,
                                      std::uint64_t views_end) const {
  return std::all_of(env.begin(), env.end(), [this, views_end](std::int64_t m) {
    const ProcessId sender = message_sender(m);
    const ProcessId receiver = message_receiver(m);
    const ViewId view = message_view(m);
    return sender >= 0 && sender < n() && receiver < n() && view >= 0 &&
           static_cast<std::uint64_t>(view) < views_end &&
           pack_message(sender, receiver, view) == m;
  });
}

void MsgPassModel::sym_env_key(const StateRef& s, sym::Relabeling& rel,
                               std::vector<std::uint64_t>* out) const {
  // Key of the relabeled in-transit multiset: (sender', receiver', 128-bit
  // payload key) tuples in sorted order — id-free, so equal relabeled
  // multisets produce equal keys regardless of interning schedule.
  std::vector<std::array<std::uint64_t, 3>> tuples;
  tuples.reserve(s.env.size());
  for (const std::int64_t m : s.env) {
    const auto k = rel.rewrite_key(message_view(m));
    const auto endpoints =
        (static_cast<std::uint64_t>(rel.new_of(message_sender(m))) << 8) |
        static_cast<std::uint64_t>(rel.new_of(message_receiver(m)));
    tuples.push_back({endpoints, k.first, k.second});
  }
  std::sort(tuples.begin(), tuples.end());
  for (const auto& t : tuples) {
    out->push_back(t[0]);
    out->push_back(t[1]);
    out->push_back(t[2]);
  }
}

std::vector<std::int64_t> MsgPassModel::sym_permute_env(
    const StateRef& s, sym::Relabeling& rel) const {
  std::vector<std::int64_t> transit;
  transit.reserve(s.env.size());
  for (const std::int64_t m : s.env) {
    transit.push_back(pack_message(rel.new_of(message_sender(m)),
                                   rel.new_of(message_receiver(m)),
                                   rel.rewrite(message_view(m))));
  }
  std::sort(transit.begin(), transit.end());
  return transit;
}

std::vector<StateId> MsgPassModel::compute_layer(StateId x) {
  std::vector<StateId> succ;
  succ.reserve(schedules_.size());
  SuccessorBuilder b;
  for (const Schedule& schedule : schedules_) {
    succ.push_back(apply_schedule(b, x, schedule));
  }
  return succ;
}

}  // namespace lacon
