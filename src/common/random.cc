#include "common/random.h"

#include <numeric>
#include <sstream>

namespace fedgta {

Mt19937_64::Mt19937_64(uint64_t seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateSize; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  constexpr size_t kShift = 156;
  constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  constexpr uint64_t kLower = ~kUpper;
  constexpr uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
  // Branch-free form of the reference recurrence: the low bit of y selects
  // kMatrix through a mask instead of a data-dependent branch.
  auto next = [](uint64_t lo_word, uint64_t hi_word, uint64_t shifted) {
    const uint64_t y = (lo_word & kUpper) | (hi_word & kLower);
    return shifted ^ (y >> 1) ^ ((uint64_t{0} - (y & 1)) & kMatrix);
  };
  uint64_t* x = state_;
  for (size_t k = 0; k < kStateSize - kShift; ++k) {
    x[k] = next(x[k], x[k + 1], x[k + kShift]);
  }
  for (size_t k = kStateSize - kShift; k < kStateSize - 1; ++k) {
    x[k] = next(x[k], x[k + 1], x[k + kShift - kStateSize]);
  }
  x[kStateSize - 1] = next(x[kStateSize - 1], x[0], x[kShift - 1]);
  pos_ = 0;
}

void Mt19937_64::Fill(uint64_t* __restrict out, size_t n) {
  while (n > 0) {
    if (pos_ >= kStateSize) Twist();
    const size_t run = std::min(n, kStateSize - pos_);
    const uint64_t* __restrict words = state_ + pos_;
    // One independent temper per word: the compiler vectorizes this loop.
    for (size_t i = 0; i < run; ++i) out[i] = Temper(words[i]);
    pos_ += run;
    out += run;
    n -= run;
  }
}

std::string Rng::SaveState() const {
  // libstdc++'s operator<< for std::mt19937_64: every state word followed
  // by a space, then the position.
  std::ostringstream os;
  for (uint64_t word : engine_.state_) os << word << ' ';
  os << engine_.pos_;
  return os.str();
}

Status Rng::LoadState(const std::string& state) {
  Mt19937_64 engine(0);
  std::istringstream is(state);
  for (uint64_t& word : engine.state_) is >> word;
  is >> engine.pos_;
  if (is.fail()) {
    return InvalidArgumentError("malformed mt19937_64 state string");
  }
  if (engine.pos_ > Mt19937_64::kStateSize) {
    return InvalidArgumentError("mt19937_64 state position out of range");
  }
  engine_ = engine;
  return OkStatus();
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  FEDGTA_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    FEDGTA_CHECK_GE(w, 0.0);
    total += w;
  }
  FEDGTA_CHECK_GT(total, 0.0) << "Categorical weights must not all be zero";
  std::uniform_real_distribution<double> dist(0.0, total);
  double r = dist(engine_);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int count) {
  FEDGTA_CHECK_GE(n, 0);
  FEDGTA_CHECK_GE(count, 0);
  FEDGTA_CHECK_LE(count, n);
  std::vector<int> pool(n);
  std::iota(pool.begin(), pool.end(), 0);
  // Partial Fisher-Yates: only the first `count` positions are needed.
  for (int i = 0; i < count; ++i) {
    int j = static_cast<int>(UniformInt(i, n - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

}  // namespace fedgta
