//===- lang/Type.h - Mini-C type system ----------------------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types for the mini-C dialect: void, sized integers, pointers, arrays,
/// structs, and function types. Types are interned in a TypeContext so that
/// pointer equality is type equality and each type has a stable index used as
/// the skeleton TypeKey (holes accept only same-type variables, the "compact
/// alpha-renaming with types" of Section 3.2.2).
///
//===----------------------------------------------------------------------===//

#ifndef SPE_LANG_TYPE_H
#define SPE_LANG_TYPE_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spe {

class TypeContext;

/// A mini-C type. Instances are owned and uniqued by TypeContext.
class Type {
public:
  enum class Kind { Void, Integer, Pointer, Array, Struct, Function };

  Kind kind() const { return TheKind; }
  /// Stable index within the owning TypeContext; used as skeleton TypeKey.
  uint32_t index() const { return Index; }

  bool isVoid() const { return TheKind == Kind::Void; }
  bool isInteger() const { return TheKind == Kind::Integer; }
  bool isPointer() const { return TheKind == Kind::Pointer; }
  bool isArray() const { return TheKind == Kind::Array; }
  bool isStruct() const { return TheKind == Kind::Struct; }
  bool isFunction() const { return TheKind == Kind::Function; }
  bool isScalar() const { return isInteger() || isPointer(); }

  /// Integer bit width (8/16/32/64); asserts isInteger().
  unsigned intWidth() const {
    assert(isInteger() && "not an integer type");
    return Width;
  }
  /// Integer signedness; asserts isInteger().
  bool isSigned() const {
    assert(isInteger() && "not an integer type");
    return Signed;
  }

  /// Pointee or array element type.
  const Type *elementType() const {
    assert((isPointer() || isArray()) && "no element type");
    return Element;
  }
  /// Number of array elements; asserts isArray().
  uint64_t arraySize() const {
    assert(isArray() && "not an array type");
    return ArrayLen;
  }

  /// Struct tag name; asserts isStruct().
  const std::string &structName() const {
    assert(isStruct() && "not a struct type");
    return Name;
  }
  struct Field {
    std::string Name;
    const Type *Ty;
    uint64_t Offset; // Byte offset, assigned when the struct is completed.
  };
  const std::vector<Field> &fields() const {
    assert(isStruct() && "not a struct type");
    return Fields;
  }
  /// \returns the index of field \p Name, or -1 if absent.
  int fieldIndex(const std::string &Name) const;
  bool isCompleteStruct() const { return StructComplete; }

  /// Function return type and parameters; assert isFunction().
  const Type *returnType() const {
    assert(isFunction() && "not a function type");
    return Element;
  }
  const std::vector<const Type *> &paramTypes() const {
    assert(isFunction() && "not a function type");
    return Params;
  }

  /// Size in bytes (array of N elements = N * elem size; incomplete struct
  /// or void or function = 0).
  uint64_t sizeInBytes() const;

  /// Renders the type as C-ish source, e.g. "unsigned int", "int *",
  /// "struct s", "int [4]".
  std::string toString() const;

private:
  friend class TypeContext;
  Type(Kind K, uint32_t Index) : TheKind(K), Index(Index) {}

  Kind TheKind;
  uint32_t Index;
  unsigned Width = 0;
  bool Signed = true;
  const Type *Element = nullptr;
  uint64_t ArrayLen = 0;
  std::string Name;
  std::vector<Field> Fields;
  bool StructComplete = false;
  std::vector<const Type *> Params;
};

/// Normalizes a raw 64-bit payload to the integer type's width, sign- or
/// zero-extending into the full word. The reference interpreter, IRGen,
/// MiniCC's constant folder and the VM all call it, so they agree bit for
/// bit. Inline because both executors call it on every integer value.
inline uint64_t normalizeIntValue(const Type *Ty, uint64_t Raw) {
  unsigned Width = Ty->intWidth();
  if (Width == 64)
    return Raw;
  uint64_t Mask = (1ull << Width) - 1;
  Raw &= Mask;
  if (Ty->isSigned() && (Raw & (1ull << (Width - 1))))
    Raw |= ~Mask;
  return Raw;
}

/// Owns and uniques all types of one translation unit.
class TypeContext {
public:
  TypeContext();

  const Type *voidType() const { return VoidTy; }
  /// \returns the interned integer type of the given width and signedness.
  const Type *intType(unsigned Width, bool Signed) const;

  const Type *charType() const { return intType(8, true); }
  const Type *shortType() const { return intType(16, true); }
  const Type *int32Type() const { return intType(32, true); }
  const Type *longType() const { return intType(64, true); }

  /// C's integer promotions: an integer narrower than int becomes int;
  /// every other type is itself.
  const Type *promote(const Type *T) const {
    return T->isInteger() && T->intWidth() < 32 ? int32Type() : T;
  }
  /// C's usual arithmetic conversions: the common type of two promoted
  /// integer operands. Sema types expressions with it, IRGen converts
  /// operands to it and the oracle computes in it. A shift takes its
  /// promoted left type instead. When either promoted operand is not an
  /// integer the result is \p A's promoted type; Sema diagnoses those.
  const Type *usualArithmeticConversions(const Type *A, const Type *B) const {
    A = promote(A);
    B = promote(B);
    if (A == B || !A->isInteger() || !B->isInteger())
      return A;
    unsigned Width = std::max(A->intWidth(), B->intWidth());
    if (A->isSigned() == B->isSigned())
      return intType(Width, A->isSigned());
    // The unsigned type wins unless the signed one is strictly wider.
    const Type *SignedT = A->isSigned() ? A : B;
    const Type *UnsignedT = A->isSigned() ? B : A;
    return intType(Width, SignedT->intWidth() > UnsignedT->intWidth());
  }

  const Type *pointerTo(const Type *Pointee);
  const Type *arrayOf(const Type *Element, uint64_t Count);
  const Type *functionType(const Type *Ret,
                           std::vector<const Type *> Params);

  /// Creates (or retrieves) the struct type with tag \p Name. Fields are
  /// attached later via completeStruct.
  Type *getOrCreateStruct(const std::string &Name);
  /// Completes \p S with \p Fields, assigning byte offsets.
  void completeStruct(Type *S, std::vector<Type::Field> Fields);

  /// \returns the type with a given index.
  const Type *byIndex(uint32_t Index) const { return AllTypes[Index].get(); }
  uint32_t numTypes() const { return static_cast<uint32_t>(AllTypes.size()); }

private:
  Type *create(Type::Kind K);

  std::vector<std::unique_ptr<Type>> AllTypes;
  const Type *VoidTy = nullptr;
  // Integer types indexed by [log2(width/8)][signed].
  const Type *IntTypes[4][2] = {};
};

} // namespace spe

#endif // SPE_LANG_TYPE_H
