// CRC-32 checksum used by the Moira-to-server update protocol (paper section
// 5.9: "The file transfer includes a checksum to insure data integrity").
#ifndef MOIRA_SRC_COMMON_CHECKSUM_H_
#define MOIRA_SRC_COMMON_CHECKSUM_H_

#include <cstdint>
#include <string_view>

namespace moira {

// Standard CRC-32 (IEEE 802.3 polynomial, reflected), computed eight bytes
// at a time (slicing-by-8); the values are those of the bytewise algorithm.
uint32_t Crc32(std::string_view data);

// Incremental form: feed `data` into a running crc (start with 0).
uint32_t Crc32Update(uint32_t crc, std::string_view data);

}  // namespace moira

#endif  // MOIRA_SRC_COMMON_CHECKSUM_H_
