/**
 * @file
 * Procedurally generated datasets.
 *
 * The paper trains on ImageNet / WMT17 / PennTreeBank, which are not
 * available here; per the reproduction rules these are substituted by
 * synthetic tasks that exercise the same code paths (CNN image
 * classification, sequence classification, language modeling) at a
 * scale trainable on a CPU in seconds. All generation is seeded and
 * deterministic.
 */

#ifndef CQ_NN_DATASETS_H
#define CQ_NN_DATASETS_H

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "nn/network.h"
#include "tensor/tensor.h"

namespace cq::nn {

/** A labeled minibatch of images/points. */
struct Batch
{
    Tensor inputs;
    std::vector<int> labels;
};

/**
 * Pattern-image classification: each class is a distinct oriented
 * sinusoidal grating with class-dependent frequency, corrupted by
 * Gaussian noise. Learnable by small CNNs, hard enough that
 * quantization error shows up in accuracy.
 */
class PatternImageDataset
{
  public:
    PatternImageDataset(std::size_t num_classes, std::size_t channels,
                        std::size_t height, std::size_t width,
                        double noise, std::uint64_t seed);

    std::size_t numClasses() const { return numClasses_; }

    /** Sample a fresh batch (train) -- classes drawn uniformly. */
    Batch sample(std::size_t batch_size);

    /** A fixed evaluation set regenerated identically every call. */
    Batch evalSet(std::size_t size) const;

  private:
    Batch generate(std::size_t batch_size, Rng &rng) const;

    std::size_t numClasses_;
    std::size_t channels_;
    std::size_t height_;
    std::size_t width_;
    double noise_;
    std::uint64_t seed_;
    Rng rng_;
};

/**
 * Two-interleaved-spirals 2-d classification for MLP smoke tests.
 */
class SpiralDataset
{
  public:
    SpiralDataset(std::size_t num_classes, double noise,
                  std::uint64_t seed);

    std::size_t numClasses() const { return numClasses_; }
    Batch sample(std::size_t batch_size);
    Batch evalSet(std::size_t size) const;

    /** The sampling stream's Rng, exposed so a trainer can register it
     *  as ResilienceConfig::dataRng and checkpoint/restore the data
     *  pipeline along with the model state. */
    Rng &rng() { return rng_; }

  private:
    Batch generate(std::size_t batch_size, Rng &rng) const;

    std::size_t numClasses_;
    double noise_;
    std::uint64_t seed_;
    Rng rng_;
};

/**
 * The spiral classifier: fc1 (2 -> 32), tanh, fc2 (32 -> 2), with
 * weights drawn from @p seed.
 */
Network makeSpiralMlp(std::uint64_t seed);

/** A token-sequence batch for language modeling. */
struct SequenceBatch
{
    /** One-hot inputs, shape (T, B, vocab). */
    Tensor inputs;
    /** Next-token targets, length T*B, layout t-major then batch. */
    std::vector<int> targets;
    std::size_t seqLen = 0;
    std::size_t batch = 0;
    std::size_t vocab = 0;
};

/**
 * Synthetic language-modeling corpus: tokens generated by a seeded
 * second-order Markov chain with sparse transitions, so the entropy is
 * well below log(vocab) and a model can learn real structure
 * (perplexity substitutes PTB-LSTM's metric).
 */
class MarkovTextDataset
{
  public:
    MarkovTextDataset(std::size_t vocab, std::uint64_t seed);

    std::size_t vocab() const { return vocab_; }

    /** Sample a (T, B) batch of sequences plus next-token targets. */
    SequenceBatch sample(std::size_t seq_len, std::size_t batch_size);

    /** Deterministic eval batch. */
    SequenceBatch evalSet(std::size_t seq_len,
                          std::size_t batch_size) const;

  private:
    SequenceBatch generate(std::size_t seq_len, std::size_t batch_size,
                           Rng &rng) const;

    std::size_t vocab_;
    std::uint64_t seed_;
    /** transition[a][b] = row of next-token probabilities. */
    std::vector<std::vector<float>> transitions_;
    Rng rng_;
};

/**
 * Sequence classification for the Transformer: the label is the
 * (hidden) permutation rule that reorders a marker subsequence within
 * noise tokens -- requires attending across positions to solve.
 * Inputs are one-hot (B*T, vocab)-shaped rows for direct consumption
 * by TransformerBlock.
 */
class SequenceRuleDataset
{
  public:
    SequenceRuleDataset(std::size_t num_classes, std::size_t vocab,
                        std::size_t seq_len, std::uint64_t seed);

    std::size_t numClasses() const { return numClasses_; }
    std::size_t vocab() const { return vocab_; }
    std::size_t seqLen() const { return seqLen_; }

    /** Inputs shaped (B*T, vocab); one label per sequence. */
    Batch sample(std::size_t batch_size);
    Batch evalSet(std::size_t size) const;

  private:
    Batch generate(std::size_t batch_size, Rng &rng) const;

    std::size_t numClasses_;
    std::size_t vocab_;
    std::size_t seqLen_;
    std::uint64_t seed_;
    Rng rng_;
};

} // namespace cq::nn

#endif // CQ_NN_DATASETS_H
