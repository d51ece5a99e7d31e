#ifndef FEDGTA_COMMON_RANDOM_H_
#define FEDGTA_COMMON_RANDOM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace fedgta {

/// MT19937-64 with std::mt19937_64's exact output stream and seeding, plus
/// a block Fill. It satisfies UniformRandomBitGenerator, so the std
/// distributions and std::shuffle draw from it exactly as they would from
/// std::mt19937_64 in the same state. Rng reads and writes its state in
/// libstdc++'s textual form of std::mt19937_64 (DESIGN.md §5d, "Random
/// streams").
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kStateSize = 312;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(uint64_t seed);

  result_type operator()() {
    if (pos_ >= kStateSize) Twist();
    return Temper(state_[pos_++]);
  }

  /// Writes the next `n` outputs to `out`: the words `n` calls of
  /// operator() would return, in order, leaving the same state behind.
  void Fill(uint64_t* out, size_t n);

 private:
  friend class Rng;

  static uint64_t Temper(uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }
  /// Regenerates all kStateSize words and rewinds pos_ to 0.
  void Twist();

  uint64_t state_[kStateSize] = {};
  size_t pos_ = kStateSize;  // next word to temper; kStateSize: twist first
};

/// Deterministic random number generator used throughout the library.
/// All stochastic components take an explicit Rng (or seed) so experiments
/// are reproducible bit-for-bit given the same seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform float in [lo, hi).
  float Uniform(float lo = 0.0f, float hi = 1.0f) {
    std::uniform_real_distribution<float> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    FEDGTA_CHECK_LE(lo, hi);
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Gaussian sample.
  float Normal(float mean = 0.0f, float stddev = 1.0f) {
    std::normal_distribution<float> dist(mean, stddev);
    return dist(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// All weights must be non-negative with a positive sum.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    std::shuffle(values.begin(), values.end(), engine_);
  }

  /// Samples `count` distinct elements from [0, n) without replacement.
  std::vector<int> SampleWithoutReplacement(int n, int count);

  /// Forks a child generator with an independent stream; deterministic in
  /// (parent state, salt).
  Rng Fork(uint64_t salt) {
    return Rng(engine_() ^ (salt * 0x9e3779b97f4a7c15ULL));
  }

  /// Serializes the full engine state (std::mt19937_64 textual form) so a
  /// checkpointed stream resumes exactly where it left off.
  std::string SaveState() const;
  /// Restores a state produced by SaveState. Malformed input (unparsable,
  /// fewer than 313 numbers, or a position above 312) is an InvalidArgument
  /// Status and leaves the engine untouched.
  Status LoadState(const std::string& state);

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace fedgta

#endif  // FEDGTA_COMMON_RANDOM_H_
