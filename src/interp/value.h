// Runtime values for the PF77 interpreter.
#pragma once

#include <cstdint>
#include <string>

#include "ir/type.h"
#include "support/assert.h"

namespace polaris {

/// Truncates `d` toward zero.  Throws UserError when `d` has no 64-bit
/// integer value (NaN, or |d| >= 2^63), where a plain cast is undefined.
std::int64_t real_to_int(double d);

/// A Fortran scalar value.  Real and double precision share a double
/// representation (sufficient for the reproduction's numeric checks).
class Value {
 public:
  Value() : kind_(TypeKind::Integer), i_(0) {}
  static Value integer(std::int64_t v) {
    Value x;
    x.kind_ = TypeKind::Integer;
    x.i_ = v;
    return x;
  }
  static Value real(double v) {
    Value x;
    x.kind_ = TypeKind::Real;
    x.d_ = v;
    return x;
  }
  static Value logical(bool v) {
    Value x;
    x.kind_ = TypeKind::Logical;
    x.b_ = v;
    return x;
  }
  /// Zero value of a declared type.
  static Value zero_of(Type t) {
    if (t.is_integer()) return integer(0);
    if (t.is_logical()) return logical(false);
    return real(0.0);
  }

  TypeKind kind() const { return kind_; }
  bool is_integer() const { return kind_ == TypeKind::Integer; }
  bool is_real() const {
    return kind_ == TypeKind::Real || kind_ == TypeKind::DoublePrecision;
  }
  bool is_logical() const { return kind_ == TypeKind::Logical; }

  std::int64_t as_int() const {
    if (is_integer()) return i_;
    if (is_real()) return real_to_int(d_);  // out of line: range-checked
    p_assert_msg(false, "logical used as integer");
  }
  double as_real() const {
    if (is_real()) return d_;
    if (is_integer()) return static_cast<double>(i_);
    p_assert_msg(false, "logical used as real");
  }
  bool as_logical() const {
    p_assert_msg(is_logical(), "non-logical used in condition");
    return b_;
  }

  /// The payload of a value whose kind is known (lowered code proved it
  /// integer or real): no tag test.
  std::int64_t int_unchecked() const { return i_; }
  double real_unchecked() const { return d_; }

  /// Coerces to the declared type of a storage location.
  Value coerce_to(Type t) const {
    if (t.is_integer()) return integer(as_int());
    if (t.is_logical()) return logical(as_logical());
    return real(as_real());
  }

  std::string to_string() const {
    if (is_integer()) return std::to_string(i_);
    if (is_logical()) return b_ ? "T" : "F";
    return std::to_string(d_);
  }

 private:
  TypeKind kind_;
  union {
    std::int64_t i_;
    double d_;
    bool b_;
  };
};

}  // namespace polaris
