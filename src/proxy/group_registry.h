// Related-object group management (paper §5.2).
//
// Mutual consistency needs to know which cached objects are related.  The
// paper: groups "can be specified by the user or be automatically deduced
// using syntactic or semantic relationships", stored in dependency-graph
// style structures.  This registry supports explicit (semantic) groups and
// syntactic groups built by parsing a page's embedded links; the
// dependency-graph view answers "which groups must be re-examined when
// object X changes".
//
// A registry is bound to a UriTable (the origin's, typically): members are
// interned at registration, every ObjectGroup carries the interned ids
// alongside the uris, and the dependency-graph query is keyed by ObjectId
// — so consumers wiring groups into the id-keyed coordinator dispatch
// never re-hash member uris.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.h"
#include "util/uri_table.h"

namespace broadway {

/// One group of mutually-consistent objects with its tolerance δ.
struct ObjectGroup {
  std::string id;
  std::vector<std::string> members;
  /// Interned member ids, parallel to `members`.
  std::vector<ObjectId> member_ids;
  Duration delta_mutual = 0.0;
};

/// Registry of groups; an object may belong to several.
class GroupRegistry {
 public:
  /// Registry interning members into `table` (which must outlive it).
  explicit GroupRegistry(UriTable& table) : table_(&table) {}

  /// Register an explicit (user/semantic) group.  Group ids are unique;
  /// members must number at least two and be distinct.
  const ObjectGroup& add_group(std::string id,
                               std::vector<std::string> members,
                               Duration delta_mutual);

  /// Build a syntactic group from a page body: the page plus its embedded
  /// objects (paper's news-story example).  The group id is the page uri.
  /// Returns nullptr (and registers nothing) when the page embeds nothing.
  const ObjectGroup* add_syntactic_group(const std::string& page_uri,
                                         std::string_view html,
                                         Duration delta_mutual);

  /// Lookup by id; nullptr if absent.
  const ObjectGroup* find(const std::string& id) const;

  /// All groups containing `object` (the dependency-graph edge fan-out).
  /// Unknown ids yield an empty result.
  std::vector<const ObjectGroup*> groups_containing(ObjectId object) const;

  /// Every distinct object mentioned by any group.
  std::vector<std::string> all_members() const;

  /// The bound intern table.
  const UriTable& uri_table() const { return *table_; }

  std::size_t size() const { return groups_.size(); }

 private:
  UriTable* table_;
  std::map<std::string, ObjectGroup> groups_;
  // ObjectId -> group ids (the dependency graph's reverse index).
  std::map<ObjectId, std::vector<std::string>> membership_;

  void index_group(ObjectGroup& group);
};

}  // namespace broadway
