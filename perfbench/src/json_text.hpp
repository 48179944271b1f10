#pragma once
/// \file json_text.hpp
/// Raw-text helpers over JSON documents the program emits.  The checks
/// need the *bytes* of a member (a plan inside a serve reply, one plan of
/// a forest array) to hand to plan_from_json, which the library's value
/// parser cannot give back, so these scan the text structurally instead.

#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Raw text of member \p key of the top-level object \p doc; throws
/// std::runtime_error when \p doc is not an object or lacks the key.
std::string raw_member(std::string_view doc, std::string_view key);

/// Raw text of every element of the top-level array \p doc; throws
/// std::runtime_error when \p doc is not an array.
std::vector<std::string> split_array(std::string_view doc);

/// \p doc with the value of every `"search_wall_s"` and `"wall_s"`
/// member replaced by 0: the plan bytes that may differ between two
/// searches of the same problem.
std::string zero_wall_fields(std::string_view doc);

/// Multiplies the first numeric value of member \p key (at any depth) by
/// \p factor in place.  Returns false when no such member exists.  Used
/// only to corrupt outputs in self-test runs.
bool scale_first_number(std::string& doc, std::string_view key,
                        double factor);

}  // namespace perfbench
