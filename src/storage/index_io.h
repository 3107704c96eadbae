#ifndef MRX_STORAGE_INDEX_IO_H_
#define MRX_STORAGE_INDEX_IO_H_

#include <string>
#include <vector>

#include "index/m_star_index.h"
#include "util/result.h"

namespace mrx::storage {

/// \brief Serializes an M*(k)-index into the "MRX*" container format:
/// a header, a table of contents with one (offset, length, checksum)
/// entry per component, and one independently-decodable blob per
/// component. The per-component layout is what makes *selective* loading
/// possible (the paper's §6 future work — see DiskMStarIndex).
std::string SerializeMStarIndex(const MStarIndex& index);

/// \brief Reassembles a full in-memory M*(k)-index over `graph` (which
/// must be the same data graph the index was built on — extents are node
/// ids into it). Adjacency is recomputed from the graph; Properties 1-5
/// are re-verified.
Result<MStarIndex> DeserializeMStarIndex(const DataGraph& graph,
                                         std::string_view bytes);

/// File convenience wrappers.
Status SaveMStarIndexToFile(const MStarIndex& index,
                            const std::string& path);
Result<MStarIndex> LoadMStarIndexFromFile(const DataGraph& graph,
                                          const std::string& path);

/// Container format versions. Version 4 stores each extent as its member
/// count and ascending varint deltas, and checksums blobs with the standard
/// FNV-1a offset basis (version 3 had the same records under a basis one
/// digit short). Versions 1 to 3 are no longer read: nothing writes them,
/// and loading one is an "unsupported index container version" ParseError.
inline constexpr uint64_t kMStarFormatVersion = 4;
inline constexpr uint64_t kMStarOldestSupportedVersion = 4;

/// Decoded container header (exposed for DiskMStarIndex and tests).
struct MStarFileToc {
  uint64_t version = kMStarFormatVersion;
  struct Entry {
    uint64_t offset = 0;  ///< Absolute byte offset of the component blob.
    uint64_t length = 0;
    uint64_t checksum = 0;
  };
  std::vector<Entry> components;
};

/// Parses just the header/TOC of an "MRX*" container (cheap: no component
/// blob is touched). `total_size` bounds the TOC's offsets — pass the
/// container's full byte size when `bytes` holds only its prefix.
Result<MStarFileToc> ReadMStarToc(std::string_view bytes,
                                  uint64_t total_size);
inline Result<MStarFileToc> ReadMStarToc(std::string_view bytes) {
  return ReadMStarToc(bytes, bytes.size());
}

/// Decodes one component blob (bounds given by the TOC) into a spec.
/// `version` selects the node encoding (pass the TOC's version when
/// decoding a file; defaults to the current format).
Result<MStarComponentSpec> DecodeComponentBlob(
    std::string_view blob, uint64_t version = kMStarFormatVersion);

/// Encodes one component of `index` as an independent blob (exposed for
/// tests).
std::string EncodeComponentBlob(const MStarIndex& index, size_t component);

}  // namespace mrx::storage

#endif  // MRX_STORAGE_INDEX_IO_H_
