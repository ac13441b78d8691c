#pragma once
// Detector-frame preprocessing, mirroring Section VI of the paper: intensity
// thresholding, intensity normalization, and center-of-mass centering so the
// sketch focuses on beam *shape* rather than pointing jitter or pulse energy.
//
// Every kernel exists for both pixel precisions: the ImageF (fp64)
// overloads are the default analysis path; the ImageF32 overloads serve
// the fp32 ingest lane and share one template implementation, with all
// reductions (totals, centroids, block means) accumulated in double so
// the NaN-guard semantics are identical in both lanes.

#include <functional>
#include <vector>

#include "image/image.hpp"

namespace arams::image {

struct CenterOfMass {
  double y = 0.0;
  double x = 0.0;
  double mass = 0.0;
};

/// Zeroes pixels below `threshold` (absolute counts).
void threshold_below(ImageF& img, double threshold);
void threshold_below(ImageF32& img, double threshold);

/// Zeroes pixels below `fraction` of the maximum (robust to pulse energy).
void threshold_relative(ImageF& img, double fraction);
void threshold_relative(ImageF32& img, double fraction);

/// Scales the image so the total intensity equals `target` (no-op for an
/// all-zero image).
void normalize_intensity(ImageF& img, double target = 1.0);
void normalize_intensity(ImageF32& img, double target = 1.0);

/// Intensity-weighted centroid (double accumulation in both lanes).
CenterOfMass center_of_mass(const ImageF& img);
CenterOfMass center_of_mass(const ImageF32& img);

/// Translates the image by integer pixels so the center of mass lands on the
/// geometric center; vacated pixels are zero-filled.
void center_on_mass(ImageF& img);
void center_on_mass(ImageF32& img);

/// Central crop to (height, width); throws if the crop exceeds the image.
ImageF crop_center(const ImageF& img, std::size_t height, std::size_t width);
ImageF32 crop_center(const ImageF32& img, std::size_t height,
                     std::size_t width);

/// Block-mean downsampling by an integer `factor` (dimensions must divide).
ImageF downsample(const ImageF& img, std::size_t factor);
ImageF32 downsample(const ImageF32& img, std::size_t factor);

/// Preprocessing pipeline configuration used by the monitoring pipeline.
struct PreprocessConfig {
  double threshold_fraction = 0.02;  ///< relative threshold; <=0 disables
  bool normalize = true;             ///< normalize total intensity to 1
  bool center = true;                ///< center-of-mass recentring
  std::size_t downsample_factor = 1; ///< 1 disables
};

/// Applies the configured pipeline to a frame (in order: threshold,
/// center, normalize, downsample) and returns the result.
ImageF preprocess(const ImageF& img, const PreprocessConfig& config);
ImageF32 preprocess(const ImageF32& img, const PreprocessConfig& config);

/// Applies `preprocess` to a batch.
std::vector<ImageF> preprocess_batch(const std::vector<ImageF>& images,
                                     const PreprocessConfig& config);
std::vector<ImageF32> preprocess_batch(const std::vector<ImageF32>& images,
                                       const PreprocessConfig& config);

/// Frame i of a batch for preprocess_rows, by value: preprocessing works on
/// its own copy of every frame anyway, so a source that builds the frame
/// (narrowing an fp64 frame for the fp32 lane, say) hands it over without
/// a second copy.
template <typename T>
using FrameAt = std::function<BasicImage<T>(std::size_t)>;

/// images_to_matrix(preprocess_batch(...)) without the batch of processed
/// frames: each of the n frames is preprocessed straight into its row of
/// the n×d result (d = the pixel count after preprocessing), in bands of
/// frames across the shared pool — bitwise the same at any pool size, since
/// frames are independent. A frame whose preprocessed pixel count differs
/// from frame 0's throws CheckError("inconsistent image shapes"); n = 0
/// throws too. The vector overloads read `images` in place.
linalg::Matrix preprocess_rows(std::size_t n, const FrameAt<double>& frame,
                               const PreprocessConfig& config);
linalg::MatrixF preprocess_rows(std::size_t n, const FrameAt<float>& frame,
                                const PreprocessConfig& config);
linalg::Matrix preprocess_rows(const std::vector<ImageF>& images,
                               const PreprocessConfig& config);
linalg::MatrixF preprocess_rows(const std::vector<ImageF32>& images,
                                const PreprocessConfig& config);

}  // namespace arams::image
