// Small string helpers shared across the frontend and printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace polaris {

/// Lower-cases ASCII (Fortran is case-insensitive; Polaris canonicalizes
/// identifiers to lower case on entry).
std::string to_lower(const std::string& s);

/// Strips leading and trailing whitespace.
std::string trim(const std::string& s);
/// Same, as a view into `s`.
std::string_view trim_view(std::string_view s);

/// Splits on a single character, keeping empty fields.
std::vector<std::string> split(const std::string& s, char sep);

/// True if `s` begins with `prefix` / ends with `suffix`.
bool starts_with(const std::string& s, const std::string& prefix);
bool ends_with(const std::string& s, const std::string& suffix);

/// Joins the pieces with a separator.
std::string join(const std::vector<std::string>& pieces,
                 const std::string& sep);

}  // namespace polaris
