// Tests for detector-frame preprocessing (Section VI stage 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "image/preprocess.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::image {
namespace {

ImageF gaussian_blob(std::size_t h, std::size_t w, double cy, double cx,
                     double sigma) {
  ImageF img(h, w);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const double dy = static_cast<double>(y) - cy;
      const double dx = static_cast<double>(x) - cx;
      img.at(y, x) = std::exp(-(dy * dy + dx * dx) / (2.0 * sigma * sigma));
    }
  }
  return img;
}

TEST(Preprocess, ThresholdZeroesSmallPixels) {
  ImageF img(2, 2);
  img.at(0, 0) = 0.1;
  img.at(0, 1) = 0.9;
  threshold_below(img, 0.5);
  EXPECT_EQ(img.at(0, 0), 0.0);
  EXPECT_EQ(img.at(0, 1), 0.9);
}

TEST(Preprocess, RelativeThresholdScalesWithMax) {
  ImageF img(1, 3);
  img.at(0, 0) = 10.0;
  img.at(0, 1) = 0.5;
  img.at(0, 2) = 2.0;
  threshold_relative(img, 0.1);  // cut below 1.0
  EXPECT_EQ(img.at(0, 1), 0.0);
  EXPECT_EQ(img.at(0, 2), 2.0);
}

TEST(Preprocess, RelativeThresholdDisabledForNonPositiveFraction) {
  ImageF img(1, 2);
  img.at(0, 0) = 0.1;
  threshold_relative(img, 0.0);
  EXPECT_EQ(img.at(0, 0), 0.1);
}

TEST(Preprocess, NormalizeIntensityHitsTarget) {
  ImageF img(2, 2);
  img.at(0, 0) = 2.0;
  img.at(1, 1) = 6.0;
  normalize_intensity(img, 1.0);
  EXPECT_NEAR(img.total_intensity(), 1.0, 1e-12);
}

TEST(Preprocess, NormalizeZeroImageIsNoOp) {
  ImageF img(2, 2);
  normalize_intensity(img);
  EXPECT_EQ(img.total_intensity(), 0.0);
}

TEST(Preprocess, CenterOfMassOfPointMass) {
  ImageF img(5, 7);
  img.at(3, 4) = 2.0;
  const CenterOfMass com = center_of_mass(img);
  EXPECT_DOUBLE_EQ(com.y, 3.0);
  EXPECT_DOUBLE_EQ(com.x, 4.0);
  EXPECT_DOUBLE_EQ(com.mass, 2.0);
}

TEST(Preprocess, CenterOnMassMovesBlobToCenter) {
  ImageF img = gaussian_blob(31, 31, 8.0, 22.0, 2.0);
  center_on_mass(img);
  const CenterOfMass com = center_of_mass(img);
  EXPECT_NEAR(com.y, 15.0, 1.0);
  EXPECT_NEAR(com.x, 15.0, 1.0);
}

TEST(Preprocess, CenterOnMassPreservesMassForInteriorBlob) {
  ImageF img = gaussian_blob(41, 41, 14.0, 26.0, 2.0);
  const double before = img.total_intensity();
  center_on_mass(img);
  EXPECT_NEAR(img.total_intensity(), before, 1e-6 * before);
}

TEST(Preprocess, CenterOnMassZeroImageIsNoOp) {
  ImageF img(5, 5);
  EXPECT_NO_THROW(center_on_mass(img));
}

TEST(Preprocess, CropCenterExtractsMiddle) {
  ImageF img(6, 6);
  img.at(2, 2) = 1.0;  // inside the central 2×2 after crop to 2×2
  const ImageF cropped = crop_center(img, 2, 2);
  EXPECT_EQ(cropped.height(), 2u);
  EXPECT_EQ(cropped.at(0, 0), 1.0);
}

TEST(Preprocess, CropLargerThanImageThrows) {
  const ImageF img(4, 4);
  EXPECT_THROW(crop_center(img, 5, 4), CheckError);
}

TEST(Preprocess, DownsampleBlockMean) {
  ImageF img(2, 4);
  img.at(0, 0) = 1.0;
  img.at(0, 1) = 3.0;
  img.at(1, 0) = 5.0;
  img.at(1, 1) = 7.0;
  const ImageF small = downsample(img, 2);
  EXPECT_EQ(small.height(), 1u);
  EXPECT_EQ(small.width(), 2u);
  EXPECT_DOUBLE_EQ(small.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(small.at(0, 1), 0.0);
}

TEST(Preprocess, DownsampleRequiresDivisibility) {
  const ImageF img(3, 4);
  EXPECT_THROW(downsample(img, 2), CheckError);
}

TEST(Preprocess, FullPipelineCentersAndNormalizes) {
  PreprocessConfig config;
  config.threshold_fraction = 0.01;
  config.normalize = true;
  config.center = true;
  ImageF img = gaussian_blob(32, 32, 9.0, 21.0, 2.0);
  const ImageF out = preprocess(img, config);
  EXPECT_NEAR(out.total_intensity(), 1.0, 1e-9);
  const CenterOfMass com = center_of_mass(out);
  EXPECT_NEAR(com.y, 15.5, 1.2);
  EXPECT_NEAR(com.x, 15.5, 1.2);
}

TEST(Preprocess, BatchAppliesToAll) {
  PreprocessConfig config;
  config.threshold_fraction = 0.0;
  config.center = false;
  config.normalize = true;
  std::vector<ImageF> batch(2, ImageF(2, 2));
  batch[0].at(0, 0) = 4.0;
  batch[1].at(1, 1) = 8.0;
  const auto out = preprocess_batch(batch, config);
  EXPECT_NEAR(out[0].total_intensity(), 1.0, 1e-12);
  EXPECT_NEAR(out[1].total_intensity(), 1.0, 1e-12);
}

/// n off-centre blobs of random width and brightness over a faint noise
/// floor, so thresholding, centring, normalising and block means all
/// change every frame.
std::vector<ImageF> blob_frames(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ImageF> frames;
  frames.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ImageF img = gaussian_blob(16, 16, 3.0 + 9.0 * rng.uniform(),
                               3.0 + 9.0 * rng.uniform(),
                               1.0 + 2.0 * rng.uniform());
    const double gain = 1.0 + 10.0 * rng.uniform();
    for (double& v : img.pixels()) v = gain * v + 0.05 * rng.uniform();
    frames.push_back(std::move(img));
  }
  return frames;
}

template <typename Rows>
void expect_same_bits(const Rows& got, const Rows& want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(*got.data())),
            0)
      << what;
}

TEST(Preprocess, RowsAreBitwiseBatchThenFlatten) {
  // preprocess_rows writes each frame straight into its row, in bands of
  // frames on the shared pool once a batch spans two bands: 1 and 7
  // frames stay on the calling thread, 513 fan out with a one-frame last
  // band. Each row must be the flattened preprocess_batch frame, bit for
  // bit, in both pixel types and with each stage switched off in turn.
  std::vector<std::pair<std::string, PreprocessConfig>> configs;
  configs.emplace_back("default", PreprocessConfig{});
  PreprocessConfig config;
  config.center = false;
  configs.emplace_back("center off", config);
  config = PreprocessConfig{};
  config.threshold_fraction = 0.0;
  configs.emplace_back("threshold off", config);
  config = PreprocessConfig{};
  config.normalize = false;
  configs.emplace_back("normalize off", config);
  config = PreprocessConfig{};
  config.downsample_factor = 2;
  configs.emplace_back("downsample 2", config);
  for (const std::size_t n : {1u, 7u, 513u}) {
    const std::vector<ImageF> frames = blob_frames(n, 40 + n);
    std::vector<ImageF32> narrowed;
    narrowed.reserve(n);
    for (const ImageF& frame : frames) narrowed.push_back(narrow(frame));
    for (const auto& [name, cfg] : configs) {
      const std::string what = name + ", n=" + std::to_string(n);
      expect_same_bits(preprocess_rows(frames, cfg),
                       images_to_matrix(preprocess_batch(frames, cfg)),
                       "fp64 " + what);
      expect_same_bits(preprocess_rows(narrowed, cfg),
                       images_to_matrix(preprocess_batch(narrowed, cfg)),
                       "fp32 " + what);
    }
  }
}

TEST(Preprocess, RowsRefuseMisShapedFrames) {
  std::vector<ImageF> frames = blob_frames(200, 9);
  frames[150] = ImageF(16, 15);
  EXPECT_THROW((void)preprocess_rows(frames, PreprocessConfig{}), CheckError);
  EXPECT_THROW(
      (void)preprocess_rows(std::vector<ImageF>{}, PreprocessConfig{}),
      CheckError);
}

TEST(Preprocess, DownsampleFactorOneIsIdentity) {
  ImageF img(2, 2);
  img.at(0, 1) = 3.0;
  const ImageF out = downsample(img, 1);
  EXPECT_EQ(out.at(0, 1), 3.0);
}

// ------------------------------------------------ fp32 ingest-lane twins

TEST(PreprocessF32, FullPipelineTracksF64Lane) {
  // Same frame through both lanes under the stock config; the fp32 lane
  // must land within its pinned drift budget of the fp64 reference.
  PreprocessConfig config;
  config.threshold_fraction = 0.01;
  config.normalize = true;
  config.center = true;
  // Blob center chosen so the integer centering shift is far from a
  // .5-rounding boundary — at exactly .5 the two lanes' last-ulp centroid
  // difference would legitimately pick different (adjacent) shifts.
  const ImageF frame = gaussian_blob(32, 32, 9.25, 20.75, 2.0);
  const ImageF out64 = preprocess(frame, config);
  const ImageF32 out32 = preprocess(narrow(frame), config);
  ASSERT_EQ(out32.height(), out64.height());
  ASSERT_EQ(out32.width(), out64.width());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < out64.pixel_count(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(out32.pixels()[i]) -
                                 out64.pixels()[i]));
  }
  EXPECT_LE(max_diff, 1e-5);
  // Both lanes agree on the geometry: centered mass, unit total.
  EXPECT_NEAR(out32.total_intensity(), 1.0, 1e-6);
  const CenterOfMass com = center_of_mass(out32);
  EXPECT_NEAR(com.y, 15.5, 1.2);
  EXPECT_NEAR(com.x, 15.5, 1.2);
}

TEST(PreprocessF32, ThresholdKeepsNaN) {
  ImageF32 img(1, 3);
  img.at(0, 0) = 0.1F;
  img.at(0, 1) = std::numeric_limits<float>::quiet_NaN();
  img.at(0, 2) = 0.9F;
  threshold_below(img, 0.5);
  EXPECT_EQ(img.at(0, 0), 0.0F);
  EXPECT_TRUE(std::isnan(img.at(0, 1)));  // NaN is never "below" the cut
  EXPECT_EQ(img.at(0, 2), 0.9F);
}

TEST(PreprocessF32, NaNTotalSkipsNormalization) {
  ImageF32 img(2, 2);
  img.at(0, 0) = 4.0F;
  img.at(1, 1) = std::numeric_limits<float>::quiet_NaN();
  normalize_intensity(img, 1.0);
  // A NaN total must leave the frame untouched, not smear NaN everywhere.
  EXPECT_EQ(img.at(0, 0), 4.0F);
  EXPECT_EQ(img.at(0, 1), 0.0F);
}

TEST(PreprocessF32, NaNMassSkipsCentering) {
  ImageF32 img(4, 4);
  img.at(0, 0) = 1.0F;
  img.at(3, 3) = std::numeric_limits<float>::quiet_NaN();
  center_on_mass(img);
  // Guarded bail-out: the off-center pixel must not move (lround(NaN)
  // would otherwise produce a garbage shift that blanks the frame).
  EXPECT_EQ(img.at(0, 0), 1.0F);
}

TEST(PreprocessF32, CenterOnMassMatchesF64Shift) {
  // The centering shift is an integer translation, so both lanes must
  // pick the identical offset and move the identical pixels (center again
  // kept off the .5-rounding boundary).
  const ImageF frame = gaussian_blob(16, 16, 4.25, 10.75, 1.5);
  ImageF f64 = frame;
  ImageF32 f32 = narrow(frame);
  center_on_mass(f64);
  center_on_mass(f32);
  for (std::size_t i = 0; i < f64.pixel_count(); ++i) {
    const bool zero64 = f64.pixels()[i] == 0.0;
    const bool zero32 = f32.pixels()[i] == 0.0F;
    EXPECT_EQ(zero64, zero32) << "pixel " << i;
  }
}

TEST(PreprocessF32, CropAndDownsampleMirrorF64) {
  const ImageF frame = gaussian_blob(8, 8, 3.0, 4.0, 2.0);
  const ImageF32 narrow_frame = narrow(frame);
  const ImageF32 cropped = crop_center(narrow_frame, 4, 6);
  EXPECT_EQ(cropped.height(), 4u);
  EXPECT_EQ(cropped.width(), 6u);
  EXPECT_EQ(cropped.at(0, 0), narrow_frame.at(2, 1));
  const ImageF32 down = downsample(narrow_frame, 2);
  const ImageF down64 = downsample(frame, 2);
  EXPECT_EQ(down.height(), 4u);
  for (std::size_t i = 0; i < down.pixel_count(); ++i) {
    EXPECT_NEAR(down.pixels()[i], down64.pixels()[i], 1e-6) << i;
  }
}

}  // namespace
}  // namespace arams::image
