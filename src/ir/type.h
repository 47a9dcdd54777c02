// Fortran scalar types.
//
// Array-ness is a property of the Symbol (its declared dimensions), not of
// the type, mirroring Fortran 77 declarations.
#pragma once

#include <string>

#include "support/assert.h"

namespace polaris {

enum class TypeKind {
  None,             ///< not yet resolved
  Integer,
  Real,
  DoublePrecision,
  Logical,
  Character,
};

/// A scalar Fortran type.  Small value class.
class Type {
 public:
  constexpr Type() : kind_(TypeKind::None) {}
  constexpr explicit Type(TypeKind k) : kind_(k) {}

  constexpr TypeKind kind() const { return kind_; }
  constexpr bool operator==(const Type& o) const { return kind_ == o.kind_; }
  constexpr bool operator!=(const Type& o) const { return kind_ != o.kind_; }

  constexpr bool is_integer() const { return kind_ == TypeKind::Integer; }
  constexpr bool is_floating() const {
    return kind_ == TypeKind::Real || kind_ == TypeKind::DoublePrecision;
  }
  constexpr bool is_logical() const { return kind_ == TypeKind::Logical; }

  /// The Fortran keyword for this type ("integer", "real", ...).
  std::string name() const {
    switch (kind_) {
      case TypeKind::None: return "<none>";
      case TypeKind::Integer: return "integer";
      case TypeKind::Real: return "real";
      case TypeKind::DoublePrecision: return "double precision";
      case TypeKind::Logical: return "logical";
      case TypeKind::Character: return "character";
    }
    p_unreachable("bad TypeKind");
  }

  static constexpr Type integer() { return Type(TypeKind::Integer); }
  static constexpr Type real() { return Type(TypeKind::Real); }
  static constexpr Type double_precision() {
    return Type(TypeKind::DoublePrecision);
  }
  static constexpr Type logical() { return Type(TypeKind::Logical); }
  static constexpr Type character() { return Type(TypeKind::Character); }

  /// Usual Fortran numeric promotion: integer < real < double precision.
  static Type promote(Type a, Type b) {
    if (a.kind_ == TypeKind::DoublePrecision ||
        b.kind_ == TypeKind::DoublePrecision)
      return double_precision();
    if (a.kind_ == TypeKind::Real || b.kind_ == TypeKind::Real) return real();
    return integer();
  }

 private:
  TypeKind kind_;
};

}  // namespace polaris
