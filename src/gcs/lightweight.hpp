// Lightweight groups (paper section 2.1, figure 2), after Guo & Rodrigues'
// dynamic light-weight groups [19] and the Maestro group daemon [9].
//
// One *heavy* group spans all Starfish daemons. Each application gets a
// *lightweight* group named after it, whose members are the daemons hosting
// its processes. Lightweight membership is not a separate protocol: joins,
// leaves and lightweight multicasts ride the heavy group's totally ordered
// stream, and heavy view changes are projected onto every lightweight group.
// Because every member consumes the identical ordered stream, all members
// compute identical lightweight views with no extra agreement rounds — and a
// membership event in one application's group never disturbs the others
// (the efficiency argument of the paper; measured in ablation C).
//
// This class interposes on a GroupEndpoint's callbacks: construct it, then
// start the endpoint. Application-level heavy messages still flow through
// the `app` callbacks passed here.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gcs/endpoint.hpp"
#include "gcs/types.hpp"

namespace starfish::gcs {

struct LwView {
  uint64_t lw_view_id = 0;
  std::string group;
  std::vector<MemberId> members;  ///< join order

  bool contains(MemberId id) const {
    for (const auto& m : members) {
      if (m == id) return true;
    }
    return false;
  }
};

/// One message of the lightweight layer, riding a heavy-group multicast:
/// a tag byte, then the group name (all tags but kApp) and the body (kApp
/// and kLwMsg).
struct LwMsg {
  enum class Tag : uint8_t { kApp = 0, kLwJoin = 1, kLwLeave = 2, kLwMsg = 3 };
  Tag tag = Tag::kApp;
  std::string name;
  util::Bytes body;

  util::Bytes encode() const;
  static util::Result<LwMsg> decode(util::BytesView bytes);
};

/// The lightweight layer's replicated state as a joining member receives
/// it: every group (names in increasing order) with its view id and
/// members, then the application's own state blob when it has one.
struct LwState {
  struct Group {
    uint64_t lw_view_id = 0;
    std::vector<MemberId> members;
  };
  std::map<std::string, Group> groups;
  bool has_app = false;
  util::Bytes app;

  util::Bytes encode() const;
  static util::Result<LwState> decode(util::BytesView bytes);
};

struct LwCallbacks {
  std::function<void(const LwView&)> on_view;
  std::function<void(MemberId origin, const util::Bytes& payload)> on_message;
};

class LightweightGroups {
 public:
  /// Interposes on `heavy`'s callbacks. `app` receives heavy views and
  /// plain heavy messages (sent via heavy_multicast).
  LightweightGroups(GroupEndpoint& heavy, Callbacks app);

  /// Announces this member's membership in lightweight group `name` and
  /// registers the local upcalls. Idempotent per name.
  void lw_join(const std::string& name, LwCallbacks callbacks);
  /// Announces departure from `name` and drops the local upcalls.
  void lw_leave(const std::string& name);
  /// Totally ordered multicast delivered only within lightweight group
  /// `name` (non-members' daemons filter it out).
  void lw_multicast(const std::string& name, util::Bytes payload);
  /// Plain heavy-group multicast (daemon control messages).
  void heavy_multicast(util::Bytes payload);

  /// Current lightweight view of `name`, if the group exists.
  std::optional<LwView> lw_view(const std::string& name) const;
  /// All lightweight groups this member's daemon currently belongs to.
  std::vector<std::string> local_groups() const;

  // Stats (ablation C).
  uint64_t lw_view_events_delivered() const { return lw_view_events_delivered_; }
  uint64_t lw_messages_filtered() const { return lw_messages_filtered_; }

 private:
  using Group = LwState::Group;

  void on_heavy_view(const View& view);
  void on_heavy_message(MemberId origin, const util::Bytes& payload);
  void bump_and_deliver(const std::string& name);
  util::Bytes encode_state() const;
  void apply_state(const util::Bytes& blob);

  GroupEndpoint& heavy_;
  Callbacks app_;
  std::map<std::string, Group> groups_;             ///< replicated across members
  std::map<std::string, LwCallbacks> local_subs_;   ///< this member's interests
  uint64_t lw_view_events_delivered_ = 0;
  uint64_t lw_messages_filtered_ = 0;
};

}  // namespace starfish::gcs
