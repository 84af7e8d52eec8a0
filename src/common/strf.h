// Tiny string-building helpers (libstdc++ 12 lacks <format>).
#pragma once

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

namespace mpcp {

namespace detail {

/// Argument kinds strf appends without a stream: integers (via
/// std::to_chars) and strings. bool, char and the 8-bit integers become
/// the single byte a stream writes for them ('1'/'0', the character).
template <typename T>
inline constexpr bool kStrfDirect =
    std::is_integral_v<T> || std::is_convertible_v<const T&, std::string_view>;

template <typename T>
void strfAppend(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    out.push_back(v ? '1' : '0');
  } else if constexpr (std::is_same_v<T, char> ||
                       std::is_same_v<T, signed char> ||
                       std::is_same_v<T, unsigned char>) {
    out.push_back(static_cast<char>(v));
  } else if constexpr (std::is_integral_v<T>) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
  } else {
    out.append(std::string_view(v));
  }
}

}  // namespace detail

/// Concatenates all arguments into one string, byte for byte what
/// streaming them into a std::ostringstream produces:
/// strf("t=", t, " job=", j). A call whose arguments are all integers and
/// strings skips the stream. Any other argument (a double, a type with an
/// operator<<, a manipulator such as std::setprecision that changes how
/// later arguments print) sends the whole call through one stream.
template <typename... Args>
std::string strf(const Args&... args) {
  if constexpr ((detail::kStrfDirect<Args> && ...)) {
    std::string out;
    (detail::strfAppend(out, args), ...);
    return out;
  } else {
    std::ostringstream os;
    (os << ... << args);
    return os.str();
  }
}

/// Left-pads `s` with spaces to at least `width` characters.
inline std::string padLeft(const std::string& s, std::size_t width) {
  return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

/// Right-pads `s` with spaces to at least `width` characters.
inline std::string padRight(const std::string& s, std::size_t width) {
  return s.size() >= width ? s : s + std::string(width - s.size(), ' ');
}

}  // namespace mpcp
