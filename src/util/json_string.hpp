// JSON string rendering shared by every artifact writer (reports, event
// log, divergence sections, re-emitted JSON values).
#pragma once

#include <string>
#include <string_view>

namespace dmp {

// Appends `s` to `out` as a quoted JSON string: `"` and `\` are escaped,
// newline and tab as \n and \t, every other control byte as \u00XX.
// Bytes >= 0x20 pass through, so UTF-8 text stays as written.
void append_json_string(std::string& out, std::string_view s);

}  // namespace dmp
