#include "support/options.h"

namespace polaris {

Options Options::polaris() { return Options{}; }

Options Options::baseline() {
  Options o;
  o.inline_expansion = false;
  o.cascaded_induction = false;
  o.triangular_induction = false;
  o.multiplicative_induction = false;
  o.histogram_reductions = false;
  o.array_privatization = false;
  o.range_test = false;
  o.gsa_queries = false;
  o.pure_functions = false;
  o.strength_reduction = false;
  o.runtime_pd_test = false;
  return o;
}

void Options::set(const std::string& name, bool value) {
  if (name == "inline_expansion") inline_expansion = value;
  else if (name == "induction_subst") induction_subst = value;
  else if (name == "cascaded_induction") cascaded_induction = value;
  else if (name == "triangular_induction") triangular_induction = value;
  else if (name == "multiplicative_induction") multiplicative_induction = value;
  else if (name == "reductions") reductions = value;
  else if (name == "histogram_reductions") histogram_reductions = value;
  else if (name == "scalar_privatization") scalar_privatization = value;
  else if (name == "array_privatization") array_privatization = value;
  else if (name == "range_test") range_test = value;
  else if (name == "gcd_test") gcd_test = value;
  else if (name == "banerjee_test") banerjee_test = value;
  else if (name == "gsa_queries") gsa_queries = value;
  else if (name == "forward_substitution") forward_substitution = value;
  else if (name == "loop_normalization") loop_normalization = value;
  else if (name == "pure_functions") pure_functions = value;
  else if (name == "strength_reduction") strength_reduction = value;
  else if (name == "runtime_pd_test") runtime_pd_test = value;
  else if (name == "fault_recovery") fault_recovery = value;
  else if (name == "verify_each") verify_each = value;
  else if (name == "degradation_ladder") degradation_ladder = value;
  else p_assert_msg(false, "unknown option: " + name);
}

}  // namespace polaris
