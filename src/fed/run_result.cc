#include "fed/run_result.h"

#include <cstdio>
#include <type_traits>

namespace fedgta {
namespace fed {
namespace {

bool Fail(std::string* diff, const std::string& what) {
  if (diff != nullptr) *diff = what;
  return false;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T>
bool FieldEq(T a, T b, const char* name, int round, std::string* diff) {
  if (a == b) return true;
  std::string where = name;
  if (round >= 0) where += " at round " + std::to_string(round);
  if constexpr (std::is_floating_point_v<T>) {
    return Fail(diff, where + ": " + Num(a) + " vs " + Num(b));
  } else {
    return Fail(diff,
                where + ": " + std::to_string(a) + " vs " + std::to_string(b));
  }
}

}  // namespace

bool DeterministicEquals(const RunResult& a, const RunResult& b,
                         std::string* diff) {
  if (a.curve.size() != b.curve.size()) {
    return Fail(diff, "curve length: " + std::to_string(a.curve.size()) +
                          " vs " + std::to_string(b.curve.size()));
  }
  for (size_t i = 0; i < a.curve.size(); ++i) {
    const RoundStats& x = a.curve[i];
    const RoundStats& y = b.curve[i];
    if (!FieldEq(x.round, y.round, "round index", static_cast<int>(i),
                 diff)) {
      return false;
    }
#define FEDGTA_ROUND_EQ(field) FieldEq(x.field, y.field, #field, x.round, diff)
    if (!(FEDGTA_ROUND_EQ(test_accuracy) && FEDGTA_ROUND_EQ(val_accuracy) &&
          FEDGTA_ROUND_EQ(train_loss) && FEDGTA_ROUND_EQ(upload_floats) &&
          FEDGTA_ROUND_EQ(download_floats) &&
          FEDGTA_ROUND_EQ(dropped_clients) &&
          FEDGTA_ROUND_EQ(straggler_clients) &&
          FEDGTA_ROUND_EQ(crashed_clients))) {
      return false;
    }
#undef FEDGTA_ROUND_EQ
  }
#define FEDGTA_TOTAL_EQ(field) FieldEq(a.field, b.field, #field, -1, diff)
  return FEDGTA_TOTAL_EQ(best_test_accuracy) &&
         FEDGTA_TOTAL_EQ(final_test_accuracy) &&
         FEDGTA_TOTAL_EQ(total_upload_floats) &&
         FEDGTA_TOTAL_EQ(total_download_floats) &&
         FEDGTA_TOTAL_EQ(total_dropped_clients) &&
         FEDGTA_TOTAL_EQ(total_straggler_clients) &&
         FEDGTA_TOTAL_EQ(total_crashed_clients) &&
         FEDGTA_TOTAL_EQ(resumed_from_round) &&
         FEDGTA_TOTAL_EQ(total_admitted_updates) &&
         FEDGTA_TOTAL_EQ(total_stale_dropped_updates);
#undef FEDGTA_TOTAL_EQ
}

}  // namespace fed
}  // namespace fedgta
