//===- lang/Type.cpp - Mini-C type system --------------------------------===//

#include "lang/Type.h"

using namespace spe;

int Type::fieldIndex(const std::string &FieldName) const {
  for (size_t I = 0; I < Fields.size(); ++I)
    if (Fields[I].Name == FieldName)
      return static_cast<int>(I);
  return -1;
}

uint64_t Type::sizeInBytes() const {
  switch (TheKind) {
  case Kind::Void:
  case Kind::Function:
    return 0;
  case Kind::Integer:
    return Width / 8;
  case Kind::Pointer:
    return 8;
  case Kind::Array:
    return ArrayLen * Element->sizeInBytes();
  case Kind::Struct: {
    if (!StructComplete)
      return 0;
    uint64_t Total = 0;
    for (const Field &F : Fields)
      Total += F.Ty->sizeInBytes();
    return Total == 0 ? 1 : Total;
  }
  }
  return 0;
}

std::string Type::toString() const {
  switch (TheKind) {
  case Kind::Void:
    return "void";
  case Kind::Integer: {
    std::string Base;
    switch (Width) {
    case 8:
      Base = "char";
      break;
    case 16:
      Base = "short";
      break;
    case 32:
      Base = "int";
      break;
    default:
      Base = "long";
      break;
    }
    return Signed ? Base : "unsigned " + Base;
  }
  case Kind::Pointer:
    return Element->toString() + " *";
  case Kind::Array: {
    // Outermost dimension first, matching C declarator order.
    std::string Dims;
    const Type *Base = this;
    while (Base->isArray()) {
      Dims += " [" + std::to_string(Base->ArrayLen) + "]";
      Base = Base->Element;
    }
    return Base->toString() + Dims;
  }
  case Kind::Struct:
    return "struct " + Name;
  case Kind::Function: {
    std::string Result = Element->toString() + " (";
    for (size_t I = 0; I < Params.size(); ++I) {
      if (I != 0)
        Result += ", ";
      Result += Params[I]->toString();
    }
    Result += ")";
    return Result;
  }
  }
  return "?";
}

Type *TypeContext::create(Type::Kind K) {
  AllTypes.push_back(std::unique_ptr<Type>(
      new Type(K, static_cast<uint32_t>(AllTypes.size()))));
  return AllTypes.back().get();
}

TypeContext::TypeContext() {
  VoidTy = create(Type::Kind::Void);
  for (unsigned Log = 0; Log < 4; ++Log) {
    for (unsigned S = 0; S < 2; ++S) {
      Type *T = create(Type::Kind::Integer);
      T->Width = 8u << Log;
      T->Signed = S == 1;
      IntTypes[Log][S] = T;
    }
  }
}

const Type *TypeContext::intType(unsigned Width, bool Signed) const {
  unsigned Log = Width == 8 ? 0 : Width == 16 ? 1 : Width == 32 ? 2 : 3;
  assert((8u << Log) == Width && "unsupported integer width");
  return IntTypes[Log][Signed ? 1 : 0];
}

const Type *TypeContext::pointerTo(const Type *Pointee) {
  for (const std::unique_ptr<Type> &T : AllTypes)
    if (T->isPointer() && T->Element == Pointee)
      return T.get();
  Type *T = create(Type::Kind::Pointer);
  T->Element = Pointee;
  return T;
}

const Type *TypeContext::arrayOf(const Type *Element, uint64_t Count) {
  for (const std::unique_ptr<Type> &T : AllTypes)
    if (T->isArray() && T->Element == Element && T->ArrayLen == Count)
      return T.get();
  Type *T = create(Type::Kind::Array);
  T->Element = Element;
  T->ArrayLen = Count;
  return T;
}

const Type *TypeContext::functionType(const Type *Ret,
                                      std::vector<const Type *> Params) {
  for (const std::unique_ptr<Type> &T : AllTypes)
    if (T->isFunction() && T->Element == Ret && T->Params == Params)
      return T.get();
  Type *T = create(Type::Kind::Function);
  T->Element = Ret;
  T->Params = std::move(Params);
  return T;
}

Type *TypeContext::getOrCreateStruct(const std::string &Name) {
  for (const std::unique_ptr<Type> &T : AllTypes)
    if (T->isStruct() && T->Name == Name)
      return T.get();
  Type *T = create(Type::Kind::Struct);
  T->Name = Name;
  return T;
}

void TypeContext::completeStruct(Type *S, std::vector<Type::Field> Fields) {
  assert(S->isStruct() && !S->StructComplete && "bad struct completion");
  uint64_t Offset = 0;
  for (Type::Field &F : Fields) {
    F.Offset = Offset;
    Offset += F.Ty->sizeInBytes();
  }
  S->Fields = std::move(Fields);
  S->StructComplete = true;
}
