// The one uri -> ObjectId resolver of the test suite.
//
// Every per-object query of the library is keyed by interned ObjectId, so
// a test holding a uri resolves it here.  An unknown uri fails the test:
// UriTable::find returns kInvalidObjectId for it, and a query on that id
// reads as "no records" — an EXPECT_EQ(..., 0u) would then pass without
// checking anything.  Tests of "unknown object" behaviour pass
// kInvalidObjectId explicitly instead.
#pragma once

#include <gtest/gtest.h>

#include <string_view>

#include "util/uri_table.h"

namespace broadway {

inline ObjectId id_of(const UriTable& table, std::string_view uri) {
  const ObjectId id = table.find(uri);
  if (id == kInvalidObjectId) {
    ADD_FAILURE() << "uri " << uri << " is not interned in the table";
  }
  return id;
}

}  // namespace broadway
