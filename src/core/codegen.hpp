// C++ code generation for decision-tree selectors.
//
// Section IV: "Decision trees can be implemented as a series of nested if
// statements and so are a good target for deployment." This module turns a
// fitted DecisionTreeSelector into exactly that — a self-contained C++
// function a library can compile in, with zero runtime dependencies on the
// ML stack.
#pragma once

#include <string>

#include "core/selector.hpp"

namespace aks::select {

struct CodegenOptions {
  /// Name of the emitted function.
  std::string function_name = "select_gemm_kernel";
  /// Emitted namespace; empty for none.
  std::string namespace_name = "aks_generated";
  /// Indentation width in spaces.
  int indent = 2;
};

/// Emits a C++ translation unit containing
///   KernelChoice <function_name>(double m, double k, double n);
/// where KernelChoice carries the five configuration parameters. The
/// emitted control flow replicates `selector.model()` exactly.
[[nodiscard]] std::string generate_selector_code(
    const DecisionTreeSelector& selector, const CodegenOptions& options = {});

/// Interprets the same nested-if logic the generated code would execute —
/// used to property-test that codegen preserves tree semantics without
/// invoking a compiler.
[[nodiscard]] gemm::KernelConfig evaluate_generated_logic(
    const DecisionTreeSelector& selector, double m, double k, double n);

}  // namespace aks::select
