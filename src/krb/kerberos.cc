#include "src/krb/kerberos.h"

#include <cstring>

#include "src/comerr/moira_errors.h"
#include "src/common/checksum.h"
#include "src/common/fault_schedule.h"
#include "src/krb/block_cipher.h"

namespace moira {
namespace {

// Seals fields under `key` with an integrity crc so wrong-key decryption is
// detected (PCBC garbles; the crc catches it).
std::string Seal(uint64_t key, const std::string& payload) {
  std::string framed;
  PackField(&framed, payload);
  uint32_t crc = Crc32(payload);
  framed.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return PcbcEncrypt(key, framed);
}

bool Unseal(uint64_t key, std::string_view sealed, std::string* payload) {
  std::optional<std::string> framed = PcbcDecrypt(key, sealed);
  if (!framed.has_value()) {
    return false;
  }
  std::string_view rest(*framed);
  std::string body;
  if (!UnpackField(&rest, &body) || rest.size() != sizeof(uint32_t)) {
    return false;
  }
  uint32_t crc;
  std::memcpy(&crc, rest.data(), sizeof(crc));
  if (crc != Crc32(body)) {
    return false;
  }
  *payload = std::move(body);
  return true;
}

std::string PackInt(int64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool UnpackInt(std::string_view* in, int64_t* v) {
  if (in->size() < sizeof(*v)) {
    return false;
  }
  std::memcpy(v, in->data(), sizeof(*v));
  in->remove_prefix(sizeof(*v));
  return true;
}

}  // namespace

void PackField(std::string* out, std::string_view field) {
  uint32_t len = static_cast<uint32_t>(field.size());
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(field);
}

bool UnpackField(std::string_view* in, std::string* field) {
  if (in->size() < sizeof(uint32_t)) {
    return false;
  }
  uint32_t len;
  std::memcpy(&len, in->data(), sizeof(len));
  in->remove_prefix(sizeof(len));
  if (in->size() < len) {
    return false;
  }
  field->assign(in->data(), len);
  in->remove_prefix(len);
  return true;
}

KerberosRealm::KerberosRealm(const Clock* clock) : clock_(clock) {}

int32_t KerberosRealm::AddPrincipal(std::string_view name, std::string_view password) {
  if (principals_.contains(name)) {
    return MR_EXISTS;
  }
  principals_.emplace(std::string(name), std::string(password));
  return MR_SUCCESS;
}

int32_t KerberosRealm::SetPassword(std::string_view name, std::string_view password) {
  auto it = principals_.find(name);
  if (it == principals_.end()) {
    return MR_KRB_NO_PRINC;
  }
  it->second = std::string(password);
  return MR_SUCCESS;
}

int32_t KerberosRealm::DeletePrincipal(std::string_view name) {
  auto it = principals_.find(name);
  if (it == principals_.end()) {
    return MR_KRB_NO_PRINC;
  }
  principals_.erase(it);
  return MR_SUCCESS;
}

bool KerberosRealm::HasPrincipal(std::string_view name) const {
  return principals_.contains(name);
}

uint64_t KerberosRealm::RegisterService(std::string_view name) {
  auto it = services_.find(name);
  if (it != services_.end()) {
    return it->second;
  }
  uint64_t key = DeriveBlockKey(std::string("service-key:") + std::string(name));
  services_.emplace(std::string(name), key);
  return key;
}

uint64_t KerberosRealm::ServiceKey(std::string_view name) const {
  auto it = services_.find(name);
  return it != services_.end() ? it->second : 0;
}

int32_t KerberosRealm::GetInitialTickets(std::string_view principal,
                                         std::string_view password,
                                         std::string_view service, Ticket* out) {
  if (down_) {
    return MR_KDC_UNAVAILABLE;
  }
  auto it = principals_.find(principal);
  if (it == principals_.end()) {
    return MR_KRB_NO_PRINC;
  }
  if (it->second != password) {
    return MR_KRB_BAD_PASSWORD;
  }
  uint64_t service_key = ServiceKey(service);
  if (service_key == 0) {
    return MR_KRB_NO_PRINC;
  }
  out->client = std::string(principal);
  out->service = std::string(service);
  out->issued = clock_->Now();
  out->lifetime = kDefaultLifetime;
  out->session_key =
      DeriveBlockKey(std::string(principal) + "/" + std::to_string(out->issued) + "/" +
                     std::to_string(nonce_counter_));
  // Sealed part, readable only by the service: client, issued, lifetime,
  // session key.
  std::string payload;
  PackField(&payload, out->client);
  payload += PackInt(out->issued);
  payload += PackInt(out->lifetime);
  payload += PackInt(static_cast<int64_t>(out->session_key));
  out->sealed = Seal(service_key, payload);
  return MR_SUCCESS;
}

std::string KerberosRealm::MakeAuthenticator(const Ticket& ticket) {
  uint64_t nonce = nonce_counter_++;
  std::string auth_payload;
  PackField(&auth_payload, ticket.client);
  auth_payload += PackInt(clock_->Now());
  auth_payload += PackInt(static_cast<int64_t>(nonce));
  std::string sealed_auth = Seal(ticket.session_key, auth_payload);

  std::string wire;
  PackField(&wire, ticket.sealed);
  PackField(&wire, sealed_auth);
  return wire;
}

ServiceVerifier::ServiceVerifier(std::string service, uint64_t service_key,
                                 const Clock* clock)
    : service_(std::move(service)), service_key_(service_key), clock_(clock) {}

int32_t ServiceVerifier::Verify(std::string_view authenticator, VerifiedIdentity* out) {
  std::string_view rest = authenticator;
  std::string sealed_ticket;
  std::string sealed_auth;
  if (!UnpackField(&rest, &sealed_ticket) || !UnpackField(&rest, &sealed_auth) ||
      !rest.empty()) {
    return MR_BAD_AUTH;
  }
  std::string ticket_payload;
  if (!Unseal(service_key_, sealed_ticket, &ticket_payload)) {
    return MR_BAD_AUTH;
  }
  std::string_view tp(ticket_payload);
  std::string client;
  int64_t issued;
  int64_t lifetime;
  int64_t session_key_bits;
  if (!UnpackField(&tp, &client) || !UnpackInt(&tp, &issued) || !UnpackInt(&tp, &lifetime) ||
      !UnpackInt(&tp, &session_key_bits) || !tp.empty()) {
    return MR_BAD_AUTH;
  }
  const UnixTime now = clock_->Now();
  if (now > issued + lifetime) {
    return MR_KRB_TKT_EXPIRED;
  }
  auto session_key = static_cast<uint64_t>(session_key_bits);
  std::string auth_payload;
  if (!Unseal(session_key, sealed_auth, &auth_payload)) {
    return MR_BAD_AUTH;
  }
  std::string_view ap(auth_payload);
  std::string auth_client;
  int64_t stamp;
  int64_t nonce;
  if (!UnpackField(&ap, &auth_client) || !UnpackInt(&ap, &stamp) || !UnpackInt(&ap, &nonce) ||
      !ap.empty()) {
    return MR_BAD_AUTH;
  }
  if (auth_client != client) {
    return MR_BAD_AUTH;
  }
  if (stamp < now - KerberosRealm::kMaxSkew || stamp > now + KerberosRealm::kMaxSkew) {
    return MR_KRB_TKT_EXPIRED;
  }
  auto cache_key = std::make_pair(static_cast<UnixTime>(stamp), static_cast<uint64_t>(nonce));
  if (!replay_cache_.insert(cache_key).second) {
    return MR_KRB_REPLAY;
  }
  out->principal = std::move(client);
  out->session_key = session_key;
  return MR_SUCCESS;
}

void ServiceVerifier::ExpireReplayCache() {
  const UnixTime horizon = clock_->Now() - KerberosRealm::kMaxSkew;
  auto it = replay_cache_.begin();
  while (it != replay_cache_.end() && it->first < horizon) {
    it = replay_cache_.erase(it);
  }
}

void ArmKdcOutage(const FaultSchedule& schedule, int round, int permille,
                  KerberosRealm* realm) {
  if (realm != nullptr) {
    realm->SetDown(schedule.Dice(round, FaultSchedule::kKdcTarget).Roll(permille));
  }
}

}  // namespace moira
