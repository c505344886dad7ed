#include "consistency/coordinator.h"

#include "util/check.h"

namespace broadway {

ObjectId MutualCoordinator::resolve_member(const CoordinatorHooks& hooks,
                                           const std::string& uri) {
  BROADWAY_CHECK_MSG(hooks.resolve, "coordinator used before bind()");
  const ObjectId id = hooks.resolve(uri);
  BROADWAY_CHECK_MSG(id != kInvalidObjectId, "unresolvable member " << uri);
  return id;
}

std::vector<ObjectId> MutualCoordinator::resolve_members(
    const std::vector<std::string>& uris) const {
  std::vector<ObjectId> ids;
  ids.reserve(uris.size());
  for (const std::string& uri : uris) {
    ids.push_back(resolve_member(hooks_, uri));
  }
  return ids;
}

bool MutualCoordinator::outside_delta_window(const CoordinatorHooks& hooks,
                                             ObjectId object, TimePoint now,
                                             Duration delta_mutual) {
  // Callers check that they are bound before they get here.  A refresh in
  // the recent past (own poll, or a relay in a fleet) means the cached
  // copy already originated within δ of the updated object; a poll in the
  // near future will restore that soon enough to stay within the user's
  // tolerance (Eq. 4).
  const PollWindow window = hooks.schedule->poll_window(object);
  if (now - window.last <= delta_mutual) return false;
  if (window.next - now <= delta_mutual) return false;
  return true;
}

}  // namespace broadway
