#include "passes/doall.h"

#include <algorithm>

#include "analysis/purity.h"
#include "analysis/structure.h"
#include "dep/ddtest.h"
#include "passes/privatization.h"
#include "passes/reduction.h"
#include "support/context.h"
#include "support/trace.h"

namespace polaris {

namespace {

/// Can this blocked pair plausibly be resolved at run time?  Polaris's
/// speculative path targets loops whose only unresolved accesses go
/// through subscripted subscripts (index arrays computed from input data).
bool subscripted_subscript_blockers(DoStmt* loop,
                                    const SymbolSet& exempt) {
  bool found_any = false;
  for (Statement* s = loop->next(); s != loop->follow(); s = s->next()) {
    if (s->kind() != StmtKind::Assign) continue;
    auto* a = static_cast<AssignStmt*>(s);
    if (a->lhs().kind() != ExprKind::ArrayRef) continue;
    const auto& lhs = static_cast<const ArrayRef&>(a->lhs());
    if (exempt.count(lhs.symbol())) continue;
    // Speculate on the *innermost* loop around the opaque write — outer
    // loops would re-speculate over whole inner instances (and the inner
    // loop's test is the profitable one, per the LRPD papers).
    if (s->outer() != loop) continue;
    for (const auto& sub : lhs.subscripts()) {
      if (sub->contains([](const Expression& e) {
            return e.kind() == ExprKind::ArrayRef;
          }))
        found_any = true;
    }
  }
  return found_any;
}

}  // namespace

DoallSummary mark_doall_loops(Program* program, ProgramUnit& unit,
                              const Options& opts, Diagnostics& diags,
                              AnalysisManager& am,
                              const std::set<std::string>* pure_snapshot) {
  DoallSummary summary;
  // Pure functions are safe to call from concurrent iterations.
  std::set<std::string> pure;
  if (pure_snapshot != nullptr)
    pure = *pure_snapshot;
  else if (program != nullptr && opts.pure_functions)
    pure = pure_functions(*program);
  CompileContext* cc = am.context();
  trace::TraceCollector* trace = cc != nullptr ? &cc->trace() : nullptr;
  for (DoStmt* loop : unit.stmts().loops()) {
    ++summary.loops;
    loop->par = ParallelInfo{};
    const std::string context = unit.name() + "/" + loop->loop_name();

    // Every serialization site records the human-readable reason, the
    // machine-readable code (LoopReport::reason_code / `-remarks` stream),
    // and a structured Missed remark.
    auto serialize = [&](const std::string& code, const std::string& reason,
                         std::vector<RemarkArg> args = {}) {
      loop->par.serial_reason = reason;
      loop->par.serial_code = code;
      diags.remark(RemarkKind::Missed, "doall", context, code,
                   "serial: " + reason, std::move(args));
    };

    Statement* first = loop->next();
    Statement* last = loop->follow()->prev();
    if (first == loop->follow()) {
      serialize("empty-body", "empty body");
      continue;
    }
    if (has_irregular_flow(first, last)) {
      serialize("irregular-control-flow",
                "irregular control flow (goto/return/stop)");
      diags.note("doall", context, loop->par.serial_reason);
      continue;
    }
    SymbolSet written_arrays;
    for (Symbol* s : am.may_defined_symbols(first, last))
      if (s->is_array()) written_arrays.insert(s);
    if (has_impure_calls(first, last, pure, written_arrays)) {
      serialize("unresolved-call", "unresolved subprogram call");
      diags.note("doall", context, loop->par.serial_reason);
      continue;
    }
    bool has_io = false;
    for (Statement* s = first; s != loop->follow(); s = s->next())
      if (s->kind() == StmtKind::Print) has_io = true;
    if (has_io) {
      serialize("loop-io", "I/O statement in loop body");
      diags.note("doall", context, loop->par.serial_reason);
      continue;
    }

    // Reductions first: their statements are exempt from scalar analysis
    // and their accumulators from dependence testing.
    std::vector<RecognizedReduction> reductions;
    {
      trace::TraceSpan span(trace, "recognize-reductions", "analysis");
      reductions = recognize_reductions(loop, opts, diags, am);
      // Paper Section 3.2: "the data-dependence pass later analyzes and
      // removes the flags for those statements which it can prove have no
      // loop-carried dependences."  An array reduction whose subscripts are
      // provably injective across iterations (e.g. v(i) = v(i) + t) needs no
      // reduction treatment — drop it and let the ordinary test cover it.
      for (auto it = reductions.begin(); it != reductions.end();) {
        if (!it->var->is_array()) {
          ++it;
          continue;
        }
        auto all_accesses = collect_array_accesses(loop);
        SymbolSet others;
        for (const auto& [sym, refs] : all_accesses)
          if (sym != it->var) others.insert(sym);
        Diagnostics scratch;
        LoopDepStats probe =
            test_loop_arrays(loop, opts, scratch, others, context, am);
        if (probe.parallel()) {
          for (AssignStmt* a : it->stmts)
            a->reduction_flag = ReductionKind::None;
          diags.note("reduction", context,
                     it->var->name() +
                         ": flag removed, no carried dependence (ddtest)");
          it = reductions.erase(it);
        } else {
          ++it;
        }
      }
    }

    SymbolSet exempt;
    for (const RecognizedReduction& r : reductions) exempt.insert(r.var);

    // Privatization of scalars and arrays.
    PrivatizationResult priv = [&] {
      trace::TraceSpan span(trace, "analyze-privatization", "analysis");
      return analyze_privatization(unit, loop, opts, diags, am);
    }();
    for (Symbol* s : priv.private_scalars) exempt.insert(s);
    for (Symbol* s : priv.private_arrays) exempt.insert(s);

    // Any assigned scalar that is neither private nor a reduction blocks
    // the loop (a scalar recurrence the induction pass did not remove).
    // Blocked *arrays* are not fatal here: the dependence tests below
    // decide whether their accesses actually conflict across iterations.
    std::string blocker;
    std::string blocker_code;
    std::vector<RemarkArg> blocker_args;
    for (Symbol* s : priv.blocked) {
      if (exempt.count(s) || s->is_array()) continue;
      blocker = s->name() + ": unresolved scalar recurrence";
      blocker_code = "scalar-recurrence";
      blocker_args = {{"variable", s->name()}};
      break;
    }

    LoopDepStats stats;
    if (blocker.empty()) {
      stats = test_loop_arrays(loop, opts, diags, exempt, context, am);
      loop->par.dep_pairs = stats.pairs;
      loop->par.dep_by_gcd = stats.by_gcd;
      loop->par.dep_by_banerjee = stats.by_banerjee;
      loop->par.dep_by_rangetest = stats.by_rangetest;
      if (!stats.parallel()) {
        blocker = "carried dependence: " + stats.blockers.front();
        blocker_code = "carried-dependence";
        blocker_args = {{"pair", stats.blockers.front()},
                        {"dep_pairs", std::to_string(stats.pairs)}};
      }
    }

    // What a parallel or speculative loop executes with.
    auto record_parallel_facts = [&]() {
      priv.record(loop->par);
      for (const RecognizedReduction& r : reductions)
        loop->par.reductions.push_back({r.var, r.op, r.histogram});
    };

    if (blocker.empty()) {
      loop->par.is_parallel = true;
      record_parallel_facts();
      ++summary.parallel;
      diags.note("doall", context, "parallel");
      diags.remark(
          RemarkKind::Parallelized, "doall", context, "parallel", "parallel",
          {{"dep_pairs", std::to_string(stats.pairs)},
           {"reductions", std::to_string(reductions.size())},
           {"private_vars", std::to_string(loop->par.private_vars.size())}});
      continue;
    }

    loop->par.serial_reason = blocker;
    loop->par.serial_code = blocker_code;
    if (opts.runtime_pd_test &&
        subscripted_subscript_blockers(loop, exempt)) {
      loop->par.speculative = true;
      // The PD test shadows every non-exempt array the loop writes.
      for (Statement* s = loop->next(); s != loop->follow(); s = s->next()) {
        if (s->kind() != StmtKind::Assign) continue;
        auto* a = static_cast<AssignStmt*>(s);
        if (a->lhs().kind() != ExprKind::ArrayRef) continue;
        Symbol* arr = a->target();
        if (exempt.count(arr)) continue;
        if (std::find(loop->par.speculative_arrays.begin(),
                      loop->par.speculative_arrays.end(),
                      arr) == loop->par.speculative_arrays.end())
          loop->par.speculative_arrays.push_back(arr);
      }
      record_parallel_facts();
      ++summary.speculative;
      diags.note("doall", context, "speculative (run-time PD test)");
      diags.remark(RemarkKind::Parallelized, "doall", context,
                   "speculative-pd-test", "speculative (run-time PD test)",
                   {{"blocked_on", blocker}});
    } else {
      diags.note("doall", context, "serial: " + blocker);
      diags.remark(RemarkKind::Missed, "doall", context, blocker_code,
                   "serial: " + blocker, std::move(blocker_args));
    }
  }
  return summary;
}

}  // namespace polaris
