// JSON string escaping, shared by every writer of JSON text: serve
// responses, metrics and trace dumps, postmortem verdicts, bench reports.
#pragma once

#include <string>
#include <string_view>

namespace rbpeb {

/// Append `text` to `out` as a JSON string literal, quotes included. '"'
/// and '\' are backslash-escaped, newline, carriage return and tab take
/// their short escapes, other control characters become \u00XX, and every
/// other byte is copied as is.
void append_json_string(std::string& out, std::string_view text);

/// `text` as a JSON string literal (see append_json_string).
std::string json_quote(std::string_view text);

}  // namespace rbpeb
