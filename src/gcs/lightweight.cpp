#include "gcs/lightweight.hpp"

#include <algorithm>

namespace starfish::gcs {

namespace {

using Tag = LwMsg::Tag;

constexpr size_t kMemberIdBytes = 4 + 4;
/// Smallest group entry: empty name, view id, member count.
constexpr size_t kGroupBytes = 4 + 8 + 4;

}  // namespace

util::Bytes LwMsg::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.reserve(1 + 4 + name.size() + 4 + body.size());
  w.u8(static_cast<uint8_t>(tag));
  if (tag != Tag::kApp) w.str(name);
  if (tag == Tag::kApp || tag == Tag::kLwMsg) w.bytes(util::as_bytes_view(body));
  return out;
}

util::Result<LwMsg> LwMsg::decode(util::BytesView bytes) {
  util::Reader r(bytes);
  LwMsg m;
  m.tag = r.enum_u8(Tag::kApp, Tag::kLwMsg, "lightweight message tag");
  if (m.tag != Tag::kApp) m.name = r.str();
  if (m.tag == Tag::kApp || m.tag == Tag::kLwMsg) m.body = r.bytes();
  return r.finish(std::move(m), "a lightweight message");
}

util::Bytes LwState::encode() const {
  util::Bytes out;
  util::Writer w(out);
  w.u32(static_cast<uint32_t>(groups.size()));
  for (const auto& [name, group] : groups) {
    w.str(name);
    w.u64(group.lw_view_id);
    w.u32(static_cast<uint32_t>(group.members.size()));
    for (const auto& m : group.members) m.write(w);
  }
  w.boolean(has_app);
  if (has_app) w.bytes(util::as_bytes_view(app));
  return out;
}

util::Result<LwState> LwState::decode(util::BytesView bytes) {
  util::Reader r(bytes);
  LwState s;
  const uint32_t n = r.count(kGroupBytes, "lightweight group count exceeds the state");
  for (uint32_t i = 0; i < n; ++i) {
    std::string name = r.str();
    Group group;
    group.lw_view_id = r.u64();
    group.members.resize(r.count(kMemberIdBytes, "lightweight member count exceeds the state"));
    for (MemberId& m : group.members) m = MemberId::read(r);
    r.insert_sorted(s.groups, "lightweight group", std::move(name), std::move(group));
  }
  s.has_app = r.flag("has_app");
  if (s.has_app) s.app = r.bytes();
  return r.finish(std::move(s), "a lightweight state");
}

LightweightGroups::LightweightGroups(GroupEndpoint& heavy, Callbacks app)
    : heavy_(heavy), app_(std::move(app)) {
  Callbacks wired;
  wired.on_view = [this](const View& v) { on_heavy_view(v); };
  wired.on_message = [this](MemberId origin, const util::Bytes& payload) {
    on_heavy_message(origin, payload);
  };
  wired.get_state = [this] { return encode_state(); };
  wired.set_state = [this](const util::Bytes& blob) { apply_state(blob); };
  heavy.set_callbacks(std::move(wired));
}

void LightweightGroups::lw_join(const std::string& name, LwCallbacks callbacks) {
  if (local_subs_.contains(name)) return;
  local_subs_[name] = std::move(callbacks);
  heavy_.multicast(LwMsg{Tag::kLwJoin, name, {}}.encode());
}

void LightweightGroups::lw_leave(const std::string& name) {
  if (!local_subs_.contains(name)) return;
  heavy_.multicast(LwMsg{Tag::kLwLeave, name, {}}.encode());
  // Local upcalls stop immediately; the replicated membership updates when
  // the ordered leave message is delivered.
  local_subs_.erase(name);
}

void LightweightGroups::lw_multicast(const std::string& name, util::Bytes payload) {
  heavy_.multicast(LwMsg{Tag::kLwMsg, name, std::move(payload)}.encode());
}

void LightweightGroups::heavy_multicast(util::Bytes payload) {
  heavy_.multicast(LwMsg{Tag::kApp, {}, std::move(payload)}.encode());
}

std::optional<LwView> LightweightGroups::lw_view(const std::string& name) const {
  auto it = groups_.find(name);
  if (it == groups_.end()) return std::nullopt;
  return LwView{it->second.lw_view_id, name, it->second.members};
}

std::vector<std::string> LightweightGroups::local_groups() const {
  std::vector<std::string> out;
  out.reserve(local_subs_.size());
  for (const auto& [name, cbs] : local_subs_) out.push_back(name);
  return out;
}

void LightweightGroups::on_heavy_view(const View& view) {
  // Project the heavy membership change onto every lightweight group; only
  // groups that actually lost members change views (paper: a node failure
  // is reported only inside the lightweight groups it affects).
  std::vector<std::string> dead_groups;
  for (auto& [name, group] : groups_) {
    const size_t before = group.members.size();
    std::erase_if(group.members, [&](const MemberId& m) { return !view.contains(m); });
    if (group.members.size() != before) {
      if (group.members.empty()) {
        dead_groups.push_back(name);
      } else {
        bump_and_deliver(name);
      }
    }
  }
  for (const auto& name : dead_groups) groups_.erase(name);
  if (app_.on_view) app_.on_view(view);
}

void LightweightGroups::on_heavy_message(MemberId origin, const util::Bytes& payload) {
  auto decoded = LwMsg::decode(util::as_bytes_view(payload));
  if (!decoded.ok()) {
    heavy_.drop_undecodable("lightweight message", decoded.error());
    return;
  }
  const LwMsg& msg = decoded.value();
  switch (msg.tag) {
    case Tag::kApp:
      if (app_.on_message) app_.on_message(origin, msg.body);
      return;
    case Tag::kLwJoin: {
      auto& group = groups_[msg.name];
      if (std::find(group.members.begin(), group.members.end(), origin) ==
          group.members.end()) {
        group.members.push_back(origin);
        bump_and_deliver(msg.name);
      }
      return;
    }
    case Tag::kLwLeave: {
      auto it = groups_.find(msg.name);
      if (it == groups_.end()) return;
      const size_t before = it->second.members.size();
      std::erase(it->second.members, origin);
      if (it->second.members.size() != before) {
        if (it->second.members.empty()) {
          groups_.erase(it);
        } else {
          bump_and_deliver(msg.name);
        }
      }
      return;
    }
    case Tag::kLwMsg: {
      auto sub = local_subs_.find(msg.name);
      // Delivered only within the lightweight group: everyone else's daemon
      // filters the frame here.
      if (sub == local_subs_.end() || !sub->second.on_message) {
        ++lw_messages_filtered_;
        return;
      }
      sub->second.on_message(origin, msg.body);
      return;
    }
  }
}

void LightweightGroups::bump_and_deliver(const std::string& name) {
  auto& group = groups_[name];
  ++group.lw_view_id;
  auto sub = local_subs_.find(name);
  if (sub != local_subs_.end() && sub->second.on_view) {
    ++lw_view_events_delivered_;
    sub->second.on_view(LwView{group.lw_view_id, name, group.members});
  }
}

util::Bytes LightweightGroups::encode_state() const {
  LwState state{groups_, app_.get_state != nullptr, {}};
  if (state.has_app) state.app = app_.get_state();
  return state.encode();
}

void LightweightGroups::apply_state(const util::Bytes& blob) {
  auto decoded = LwState::decode(util::as_bytes_view(blob));
  if (!decoded.ok()) {
    heavy_.drop_undecodable("lightweight state", decoded.error());
    return;
  }
  groups_ = std::move(decoded.value().groups);
  if (decoded.value().has_app && app_.set_state) app_.set_state(decoded.value().app);
}

}  // namespace starfish::gcs
