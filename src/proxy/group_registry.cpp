#include "proxy/group_registry.h"

#include <algorithm>
#include <set>

#include "proxy/html_links.h"
#include "util/check.h"

namespace broadway {

const ObjectGroup& GroupRegistry::add_group(std::string id,
                                            std::vector<std::string> members,
                                            Duration delta_mutual) {
  BROADWAY_CHECK_MSG(!id.empty(), "group needs an id");
  BROADWAY_CHECK_MSG(groups_.find(id) == groups_.end(),
                     "duplicate group " << id);
  BROADWAY_CHECK_MSG(members.size() >= 2,
                     "group " << id << " needs >= 2 members");
  const std::set<std::string> unique(members.begin(), members.end());
  BROADWAY_CHECK_MSG(unique.size() == members.size(),
                     "group " << id << " has duplicate members");
  BROADWAY_CHECK_MSG(delta_mutual >= 0.0, "delta " << delta_mutual);

  ObjectGroup group;
  group.id = std::move(id);
  group.members = std::move(members);
  group.delta_mutual = delta_mutual;
  auto [it, inserted] = groups_.emplace(group.id, std::move(group));
  BROADWAY_CHECK(inserted);
  index_group(it->second);
  return it->second;
}

const ObjectGroup* GroupRegistry::add_syntactic_group(
    const std::string& page_uri, std::string_view html,
    Duration delta_mutual) {
  std::vector<std::string> members = extract_embedded_links(html);
  if (members.empty()) return nullptr;
  members.insert(members.begin(), page_uri);
  return &add_group(page_uri, std::move(members), delta_mutual);
}

const ObjectGroup* GroupRegistry::find(const std::string& id) const {
  auto it = groups_.find(id);
  return it == groups_.end() ? nullptr : &it->second;
}

std::vector<const ObjectGroup*> GroupRegistry::groups_containing(
    ObjectId object) const {
  std::vector<const ObjectGroup*> out;
  auto it = membership_.find(object);
  if (it == membership_.end()) return out;
  out.reserve(it->second.size());
  for (const std::string& id : it->second) {
    const ObjectGroup* group = find(id);
    BROADWAY_CHECK(group != nullptr);
    out.push_back(group);
  }
  return out;
}

std::vector<std::string> GroupRegistry::all_members() const {
  std::set<std::string> unique;
  for (const auto& [id, group] : groups_) {
    unique.insert(group.members.begin(), group.members.end());
  }
  return {unique.begin(), unique.end()};
}

void GroupRegistry::index_group(ObjectGroup& group) {
  group.member_ids.reserve(group.members.size());
  for (const std::string& member : group.members) {
    const ObjectId object = table_->intern(member);
    group.member_ids.push_back(object);
    membership_[object].push_back(group.id);
  }
}

}  // namespace broadway
