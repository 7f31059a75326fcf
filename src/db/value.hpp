#pragma once
// Dynamically typed cell value for the relational archive.
//
// Three storage classes (integer, real, text) plus NULL — the subset of
// SQLite's type system the Stampede schema actually uses (UUIDs and
// timestamps are stored as text/real respectively, as the real
// stampede_loader does via SQLAlchemy).

#include <cstdint>
#include <compare>
#include <string>
#include <variant>

namespace stampede::db {

class Value {
 public:
  struct Null {
    friend constexpr bool operator==(Null, Null) noexcept { return true; }
    friend constexpr std::strong_ordering operator<=>(Null, Null) noexcept {
      return std::strong_ordering::equal;
    }
  };

  Value() : data_(Null{}) {}
  Value(std::int64_t v) : data_(v) {}                   // NOLINT(google-explicit-constructor)
  Value(int v) : data_(static_cast<std::int64_t>(v)) {} // NOLINT(google-explicit-constructor)
  Value(double v) : data_(v) {}                         // NOLINT(google-explicit-constructor)
  Value(std::string v) : data_(std::move(v)) {}         // NOLINT(google-explicit-constructor)
  Value(const char* v) : data_(std::string{v}) {}       // NOLINT(google-explicit-constructor)

  [[nodiscard]] static Value null() { return Value{}; }

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<Null>(data_);
  }
  [[nodiscard]] bool is_int() const noexcept {
    return std::holds_alternative<std::int64_t>(data_);
  }
  [[nodiscard]] bool is_real() const noexcept {
    return std::holds_alternative<double>(data_);
  }
  [[nodiscard]] bool is_text() const noexcept {
    return std::holds_alternative<std::string>(data_);
  }

  /// Integer content; throws std::bad_variant_access on type mismatch.
  [[nodiscard]] std::int64_t as_int() const {
    return std::get<std::int64_t>(data_);
  }
  [[nodiscard]] double as_real() const { return std::get<double>(data_); }
  [[nodiscard]] const std::string& as_text() const {
    return std::get<std::string>(data_);
  }

  /// Numeric view: ints widen to double; throws for text/null.
  [[nodiscard]] double as_number() const {
    if (is_int()) return static_cast<double>(as_int());
    return as_real();
  }

  /// Lossy human rendering (NULL → "NULL").
  [[nodiscard]] std::string to_string() const;

  /// SQL-style comparison semantics except that NULL compares equal to
  /// NULL and less than everything else (needed for ORDER BY and index
  /// keys). Cross-type numeric comparisons compare numerically; numbers
  /// order before text.
  [[nodiscard]] std::partial_ordering compare(const Value& other) const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.compare(b) == std::partial_ordering::equivalent;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.compare(b) == std::partial_ordering::less;
  }

 private:
  std::variant<Null, std::int64_t, double, std::string> data_;
};

}  // namespace stampede::db

template <>
struct std::hash<stampede::db::Value> {
  std::size_t operator()(const stampede::db::Value& v) const noexcept {
    using stampede::db::Value;
    if (v.is_null()) return 0x9bf1a9;
    if (v.is_int()) return std::hash<std::int64_t>{}(v.as_int());
    if (v.is_real()) {
      // Hash integral-valued reals like their int counterpart so mixed
      // int/real keys that compare equal also hash equal. The cast is
      // defined only inside int64's range, which NaN and ±inf fail.
      const double d = v.as_real();
      if (d >= -0x1p63 && d < 0x1p63) {
        const auto i = static_cast<std::int64_t>(d);
        if (static_cast<double>(i) == d) return std::hash<std::int64_t>{}(i);
      }
      return std::hash<double>{}(d);
    }
    return std::hash<std::string>{}(v.as_text());
  }
};
