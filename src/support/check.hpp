// Lightweight runtime checking used across the library.
//
// VODSM_CHECK   — invariant that must hold regardless of build type; throws
//                 vodsm::Error so API misuse is testable.
// VODSM_CHECK_MSG — the same, with a message streamed from `msg`.
// VODSM_DCHECK  — debug-only assertion for internal invariants.
//
// A failing check builds its message in a cold, out-of-line function. The
// stream lives there, not at the check: GCC keeps every block-scope local
// of a coroutine in the coroutine's frame, so a stream declared at each
// check would make every protocol coroutine's frame kilobytes larger.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace vodsm {

// Exception thrown on violated API contracts (e.g. nested acquire_view).
class Error : public std::logic_error {
 public:
  explicit Error(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void failCheck(const char* expr, const char* file, int line,
                                   const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << ": " << msg;
  throw Error(os.str());
}

[[noreturn, gnu::cold, gnu::noinline]] inline void failCheck(const char* expr,
                                                          const char* file,
                                                          int line) {
  failCheck(expr, file, line, std::string());
}

// `write(os)` streams the message.
template <typename Write>
[[noreturn, gnu::cold, gnu::noinline]] void failCheckWith(const char* expr,
                                                          const char* file,
                                                          int line,
                                                          const Write& write) {
  std::ostringstream os;
  write(os);
  failCheck(expr, file, line, os.str());
}

}  // namespace detail
}  // namespace vodsm

#define VODSM_CHECK(expr)                                             \
  do {                                                                \
    if (!(expr))                                                      \
      ::vodsm::detail::failCheck(#expr, __FILE__, __LINE__);          \
  } while (0)

#define VODSM_CHECK_MSG(expr, msg)                                    \
  do {                                                                \
    if (!(expr))                                                      \
      ::vodsm::detail::failCheckWith(                                 \
          #expr, __FILE__, __LINE__,                                  \
          [&](std::ostream& vodsm_os_) { vodsm_os_ << msg; });        \
  } while (0)

#ifdef NDEBUG
#define VODSM_DCHECK(expr) \
  do {                     \
  } while (0)
#else
#define VODSM_DCHECK(expr) VODSM_CHECK(expr)
#endif
