#pragma once
// Locale-independent numeric formatting shared by every serialization path
// that promises bitwise double round-trips (figure-data CSVs, the on-disk
// eval cache, the worker wire protocol). One definition so the "%.17g
// through strtod recovers the exact bits" contract — and its stricter
// sibling, the u64 bit-cast round trip — live in exactly one place.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

namespace autockt::util {

/// Format `v` with enough digits that strtod recovers the identical double
/// (17 significant digits are sufficient for IEEE binary64). The decimal
/// separator is normalized to '.' so the OUTPUT does not depend on
/// LC_NUMERIC; readers are expected to parse under the default "C" radix
/// convention (this program never calls setlocale).
inline std::string format_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (char* p = buf; *p != '\0'; ++p) {
    if (*p == ',') *p = '.';
  }
  return buf;
}

/// Inverse of format_g17: strtod under the "C" radix convention. Recovers
/// the exact bits for every finite double (including denormals and -0.0);
/// NaNs come back as *a* NaN but the payload/sign bits are not preserved —
/// serializers that must round-trip NaNs bitwise use the u64 casts below.
inline double parse_g17(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

/// Bit-exact double <-> uint64_t casts: the identity every binary/hex
/// serialization path relies on. Unlike the %.17g route these round-trip
/// EVERY bit pattern — NaN payloads, signalling bits, -0.0, denormals,
/// infinities — so two processes exchanging doubles through them can
/// promise bitwise-equal results.
inline std::uint64_t double_to_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline double bits_to_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// 16-hex-digit rendering of a double's bit pattern (zero padded, lower
/// case): the on-disk eval cache's record format. Fixed width keeps records
/// trivially parseable and the torn-tail detector simple.
inline std::string format_hex_bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(double_to_bits(v)));
  return buf;
}

/// Parse a 16-hex-digit bit pattern back into the identical double.
/// Returns false (and leaves *out untouched) on any malformed input:
/// wrong length, non-hex characters.
inline bool parse_hex_bits(std::string_view text, double* out) {
  if (text.size() != 16) return false;
  std::uint64_t bits = 0;
  for (char c : text) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint64_t>(c - 'A') + 10;
    } else {
      return false;
    }
    bits = (bits << 4) | digit;
  }
  *out = bits_to_double(bits);
  return true;
}

}  // namespace autockt::util
