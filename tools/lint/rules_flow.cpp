#include <filesystem>

#include "rules.hpp"

namespace predis::lint {
namespace {
namespace fs = std::filesystem;

bool under_dir(const std::string& path, const std::string& dir) {
  const std::string generic = fs::path(path).generic_string();
  return generic.find("/" + dir + "/") != std::string::npos;
}

}  // namespace

// --- D7: guarded-field lock discipline -------------------------------------

void run_d7(Context& ctx) {
  if (ctx.symbols.guarded.empty()) return;
  for (const Function& fn : ctx.functions) {
    LockReport lr =
        analyze_locks(ctx.tokens, fn, ctx.symbols, ctx.pair, ctx.file.path);
    for (const LockViolation& v : lr.violations) {
      emit(ctx, v.line, "D7",
           "field '" + v.field + "' (guarded by '" + v.mutex +
               "') accessed without holding '" + v.mutex + "' in '" + fn.name +
               "': take the lock, or widen an existing locked scope");
    }
    for (LockEdge& e : lr.edges) {
      ctx.edges.push_back(std::move(e));
    }
  }
}

// --- D8: timer-handle lifecycle --------------------------------------------

void run_d8(Context& ctx) {
  // The runtime backends and the fault scheduler own their internal
  // scheduling. Everything else must account for every handle
  // Runtime::schedule()/after() returns.
  if (under_dir(ctx.file.path, "runtime")) return;
  const std::vector<Token>& t = ctx.tokens;
  static const std::set<std::string> kSchedulers = {"schedule",
                                                    "schedule_after", "after"};
  for (const Function& fn : ctx.functions) {
    for (std::size_t i = fn.body_open + 1; i < fn.body_close; ++i) {
      if (!t[i].ident || kSchedulers.count(t[i].text) == 0) continue;
      if (i + 1 >= fn.body_close || t[i + 1].text != "(") continue;
      if (i < 2 || (t[i - 1].text != "." && t[i - 1].text != "->")) continue;
      if (!t[i - 2].ident) continue;
      const std::size_t close = match_forward(t, i + 1);
      if (close + 1 >= t.size()) continue;
      // Walk back over the object chain to the statement start.
      std::size_t j = i - 2;
      while (j >= 2 && (t[j - 1].text == "." || t[j - 1].text == "->") &&
             t[j - 2].ident) {
        j -= 2;
      }
      if (j == 0) continue;
      const std::string& prev = t[j - 1].text;
      const bool stmt_start = prev == ";" || prev == "{" || prev == "}" ||
                              prev == ")" || prev == ":" || prev == "else" ||
                              prev == "do";
      if (t[close + 1].text == ";" && stmt_start) {
        emit(ctx, t[i].line, "D8",
             "result of '" + t[i - 2].text + "." + t[i].text +
                 "()' is discarded in '" + fn.name +
                 "': store the TimerHandle and cancel it on "
                 "teardown/restart, or wrap the call in "
                 "PREDIS_FIRE_AND_FORGET for a self-guarded tick chain");
        continue;
      }
      // `auto h = net_.schedule(...);` where h is a local that is never
      // touched again: the handle leaks and the timer can never be
      // cancelled.
      if (prev == "=" && j >= 2 && t[j - 2].ident) {
        const std::string& var = t[j - 2].text;
        if (!var.empty() && var.back() == '_') continue;  // member: below
        std::size_t uses = 0;
        for (std::size_t k = fn.body_open; k <= fn.body_close; ++k) {
          if (t[k].ident && t[k].text == var) ++uses;
        }
        if (uses <= 1) {
          emit(ctx, t[j - 2].line, "D8",
               "TimerHandle '" + var + "' in '" + fn.name +
                   "' is assigned but never used again: cancel it, return "
                   "it, or use PREDIS_FIRE_AND_FORGET on the schedule call");
        }
      }
    }
  }
  // Member handles that are armed somewhere but never cancelled in the
  // file pair. Reported once, at the declaration.
  for (const auto& [name, site] : ctx.symbols.timer_members) {
    if (site.file != ctx.file.path) continue;
    if (ctx.symbols.cancelled.count(name) != 0) continue;
    emit(ctx, site.line, "D8",
         "TimerHandle member '" + name +
             "' is never cancelled in this component: cancel it on "
             "stop/restart so a stale timer cannot fire into "
             "reinitialized state");
  }
}

// --- D9: message-taint dataflow --------------------------------------------

void run_d9(Context& ctx) {
  const std::vector<Token>& t = ctx.tokens;
  for (const Function& fn : ctx.functions) {
    const HandlerSig sig = handler_signature(t, fn);
    const bool handler =
        (fn.name.rfind("on_", 0) == 0 || fn.name == "handle") &&
        !sig.msg_param.empty();
    if (!handler && ctx.symbols.msg_derived.empty()) continue;
    const std::string msg = handler ? sig.msg_param : "";
    const TaintReport tr = analyze_taint(t, fn, ctx.symbols, msg, handler);
    for (const TaintSink& s : tr.sinks) {
      switch (s.kind) {
        case TaintSink::kIndex:
          emit(ctx, s.line, "D9",
               "'" + fn.name + "' indexes vector '" + s.detail +
                   "' with tainted '" + s.what +
                   "': the message-derived value reaches the subscript "
                   "without a bounds check or kMax* clamp");
          break;
        case TaintSink::kAlloc:
          emit(ctx, s.line, "D9",
               "'" + fn.name + "' sizes a container (" + s.detail +
                   ") with tainted '" + s.what +
                   "': clamp message-derived sizes with a kMax* constant "
                   "before allocating");
          break;
        case TaintSink::kLoop:
          emit(ctx, s.line, "D9",
               "'" + fn.name + "' walks a message-derived span ('" + s.what +
                   "') without a kMax* clamp in the loop condition: bound "
                   "catch-up/fetch spans (kMaxCatchUpSpan-style constants) "
                   "before serving them");
          break;
        case TaintSink::kStore:
          emit(ctx, s.line, "D9",
               "handler '" + fn.name + "' stores message-derived '" + s.what +
                   "' into member '" + s.detail +
                   "': annotate the member PREDIS_MSG_DERIVED so reads stay "
                   "tainted, or sanitize the value before storing");
          break;
      }
    }
  }
}

}  // namespace predis::lint
