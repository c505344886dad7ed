#include "proxy/group_registry.h"

#include <gtest/gtest.h>

#include "id_of.h"
#include "util/check.h"
#include "util/uri_table.h"

namespace broadway {
namespace {

TEST(GroupRegistry, AddAndFind) {
  UriTable table;
  GroupRegistry registry(table);
  registry.add_group("scores", {"/score/home", "/score/away"}, 30.0);
  const ObjectGroup* group = registry.find("scores");
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->members.size(), 2u);
  EXPECT_DOUBLE_EQ(group->delta_mutual, 30.0);
  EXPECT_EQ(registry.find("missing"), nullptr);
}

TEST(GroupRegistry, Validation) {
  UriTable table;
  GroupRegistry registry(table);
  EXPECT_THROW(registry.add_group("", {"/a", "/b"}, 1.0), CheckFailure);
  EXPECT_THROW(registry.add_group("g", {"/only"}, 1.0), CheckFailure);
  EXPECT_THROW(registry.add_group("g", {"/a", "/a"}, 1.0), CheckFailure);
  EXPECT_THROW(registry.add_group("g", {"/a", "/b"}, -1.0), CheckFailure);
  registry.add_group("g", {"/a", "/b"}, 1.0);
  EXPECT_THROW(registry.add_group("g", {"/c", "/d"}, 1.0), CheckFailure);
}

TEST(GroupRegistry, MembershipIndex) {
  UriTable table;
  GroupRegistry registry(table);
  registry.add_group("news", {"/page", "/img1", "/img2"}, 60.0);
  registry.add_group("finance", {"/page", "/ticker"}, 30.0);
  const auto groups = registry.groups_containing(id_of(table, "/page"));
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(registry.groups_containing(id_of(table, "/img1")).size(), 1u);
  // Interned, but in no group.
  EXPECT_TRUE(
      registry.groups_containing(table.intern("/unrelated")).empty());
}

TEST(GroupRegistry, TableBoundRegistryInternsMembers) {
  UriTable table;
  GroupRegistry registry(table);
  const ObjectGroup& news =
      registry.add_group("news", {"/page", "/img"}, 60.0);
  const ObjectGroup& finance =
      registry.add_group("finance", {"/page", "/ticker"}, 30.0);
  // Member ids parallel the member uris, interned into the bound table.
  ASSERT_EQ(news.member_ids.size(), 2u);
  EXPECT_EQ(news.member_ids[0], id_of(table, "/page"));
  EXPECT_EQ(news.member_ids[1], id_of(table, "/img"));
  ASSERT_EQ(finance.member_ids.size(), 2u);
  EXPECT_EQ(finance.member_ids[0], news.member_ids[0]);  // shared member

  // The dependency-graph fan-out answers by id without re-hashing uris.
  const auto by_id = registry.groups_containing(id_of(table, "/page"));
  EXPECT_EQ(by_id.size(), 2u);
  EXPECT_EQ(registry.groups_containing(id_of(table, "/ticker")).size(), 1u);
  EXPECT_TRUE(registry.groups_containing(kInvalidObjectId).empty());
  EXPECT_EQ(&registry.uri_table(), &table);
}

TEST(GroupRegistry, AllMembersDeduplicated) {
  UriTable table;
  GroupRegistry registry(table);
  registry.add_group("g1", {"/a", "/b"}, 1.0);
  registry.add_group("g2", {"/b", "/c"}, 1.0);
  EXPECT_EQ(registry.all_members(),
            (std::vector<std::string>{"/a", "/b", "/c"}));
}

TEST(GroupRegistry, SyntacticGroupFromHtml) {
  UriTable table;
  GroupRegistry registry(table);
  const std::string html =
      "<html><img src=\"/images/a.jpg\"><img src=\"/images/b.jpg\"></html>";
  const ObjectGroup* group =
      registry.add_syntactic_group("/story.html", html, 120.0);
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->id, "/story.html");
  EXPECT_EQ(group->members,
            (std::vector<std::string>{"/story.html", "/images/a.jpg",
                                      "/images/b.jpg"}));
  EXPECT_DOUBLE_EQ(group->delta_mutual, 120.0);
  // The page itself is indexed too.
  EXPECT_EQ(
      registry.groups_containing(id_of(table, "/story.html")).size(), 1u);
}

TEST(GroupRegistry, SyntacticGroupEmptyPageRegistersNothing) {
  UriTable table;
  GroupRegistry registry(table);
  EXPECT_EQ(registry.add_syntactic_group("/bare.html",
                                         "<html>no images</html>", 60.0),
            nullptr);
  EXPECT_EQ(registry.size(), 0u);
}

}  // namespace
}  // namespace broadway
