"""Golden-output guard: the standard suite's outputs are pinned byte for byte.

Each of the 12 STANDARD_SUITE scenarios runs at its own default seed (None)
and at seeds 1 and 2; the sha256 of the metrics.json and events.jsonl it
writes must equal the digest recorded here. A change that is meant to keep
behaviour must leave every digest alone; a change that alters an output on
purpose updates the digest and says why.
"""

import hashlib

import pytest

from dctlab.cli import STANDARD_SUITE, builtin_scenario
from dctlab.scenario import run_scenario

# (scenario id, seed) -> (sha256 of metrics.json, sha256 of events.jsonl). The events
# of relay_dh, linkage_dh and social_graph were last changed when a DH device beside a
# peer that never connects (a sniffer, a relay node, a client of another scheme) began
# to take spans: its scan lines there merge into one line per span, as every other
# client's already did, and each line expanded into its ticks is what was written before.
# The events of every relay_* scenario were last changed when a relay's scheduled calls
# began to stop only the spans of the devices they touch: scan lines merge across relay
# calls (a capture and its re-broadcast, for a listener that never meets a device
# captured; the co-presence of relayed connections, for a device not on one), and each
# line expanded into its ticks is what was written before.
GOLDEN = {
    ("relay_centralized", None): (
        "df12e3d1fb1d6a0b27218580eecc22fc225e46e767645a91c20d6678ba0a287c",
        "08e64f8ee0735af4c8c4910a7ad70c72ecb962ca2be6727f16865e03e9928f65"),
    ("relay_centralized", 1): (
        "93caae3f9a7f1c265385d19fda358f0f78aa2ff1556c6757a415ce23af009e43",
        "0f2552a76ddf5dd67ec025c381e3541ab03c018d7c716e15a6d594e810cb5a3c"),
    ("relay_centralized", 2): (
        "f2bb254e6c703ca8d45d496f54318468ca567aaaeb59aa08f53a9d06880d43bd",
        "0bc9a53bd7e628cadac5e71cdc87a9604806c3da68c3981a61d515f48bcc9264"),
    ("relay_tek", None): (
        "05cbf8bb5bd0c03defcd402651577667d53c18eae501603638a397f4e432b773",
        "f04265a3f43ef237d6c7b176d11bb0fcf3139a9e1aa36400c413647cfb47ca96"),
    ("relay_tek", 1): (
        "10d49bcf76bf84060c384e0be180d373321f41cdb6582b259e40ecdd39b460bf",
        "bba2293b6d5435d8bef8f443fbe3539c26fef07f4d6f19b4d592889ee0868a8c"),
    ("relay_tek", 2): (
        "98081bab146696c9c8b119126b3424080884d6219c6e1adb4f604151c8af078d",
        "d543253a16ff6cf912b64e6532130aac8428c8c05115f860f6aba72195bbf017"),
    ("relay_dh", None): (
        "88e4921de470f719089c3b786ebbd3a0d01f6c7c725b3b2eeb4a867694dcde7e",
        "078f96c474ff82035c9c49c94b575e4ce4eb99ccd45b4384ff09484fcf471eb3"),
    ("relay_dh", 1): (
        "f45946b7b740888aa15c47f2215d0ce2c79afb5fdcef843822efd3b56cce8b1a",
        "f8ddb4ca02fb3652dc9cebb080fdc0efe9c90b582eb39104e4d8d492030deaab"),
    ("relay_dh", 2): (
        "30b8a0dd3d38915884e6ed76fd244957b12a0345858cabab266ec2a20986f1ca",
        "4aef6b3b6e7b910b117283b2ddac7bc8226a6809ac7c0d9593514679737eaf2f"),
    ("fake_claim_centralized", None): (
        "0a9b2e78e2b6024f0285d191fe1680fe43e7d4bdfc66c0e8481aea75de6222d2",
        "8005c32958b9e90b5e64081f909a84b0d2c43302ee16efbb68d72098f24cb9a7"),
    ("fake_claim_centralized", 1): (
        "466a3da471bb1dbc7613b464fadfe8c621a74fc9705e080b094223500b3179bb",
        "ed883e17afbdd36a389e47f2340668b25d8f68c1ca60089b776150d0bef3327b"),
    ("fake_claim_centralized", 2): (
        "ace0c0031a2dbc9c02307d91e144691c4158ca212a6af45ceae0931485e93e73",
        "9890284222635749ac7d69fe60728004c2bc835b51ba256edfc61579bde3f873"),
    ("fake_claim_tek", None): (
        "d5e4c32b6744f17a515e640d991f67f4d17c57cbfc7d98a5a8dab96d5f92bcdf",
        "9528ca2e5ccf25c7a43adfed2827a2cf1e6b2a76595d0ed954c79ff986ae385e"),
    ("fake_claim_tek", 1): (
        "c83b9e16eed6565d4a8733f8871995564304c5ffd9111cc400c58260ed1aec3a",
        "f7fe23371e02d9981427dcbd8ef905c8b6e74335a01b33d2bd65b7e1a8995af5"),
    ("fake_claim_tek", 2): (
        "314a0b50f001550efe1fc5f52dfc1e9cfd7637fe54b7efaf59938d1d7f17ea96",
        "5f8dcf995b4ed6ceb77d94f422659894b360376703b97b83cb3d2ecd7a4718a8"),
    ("fake_claim_dh", None): (
        "f159fb68b96658c5543ae0b73957c90c3abda2423b90eae181d1285f581d86cc",
        "b0fc344125432f4338b27fb5d3525615edd59a5b09aac963b22f83e5ed5e82b6"),
    ("fake_claim_dh", 1): (
        "ce7db08e9a60210ca913226d02518ebee32ddf0f2b49e8346632ef09e304d6ef",
        "b6b027097df11b4ba467c08fc3d55254bfa73dd58eba33443d1ef04fecf9c078"),
    ("fake_claim_dh", 2): (
        "9fc53b4554f286054403a3c40dc88833c05febcf8a4459f770b8c600c4a08757",
        "aaa50674449b8d62262ddbeb56b27b93b8732ea7b7366a672ee6d3e5dfc36213"),
    ("linkage_centralized", None): (
        "434b2ca3131e1ef308bae66665d4f790ca163f13e26465d52c47e9778dd670d4",
        "40220d47b9443dc1fda8d41a5fd7d9ef08cfdeb29d551d8d507d32f92f37f843"),
    ("linkage_centralized", 1): (
        "086d90458ea078f9a5b01a5b90b1ee4cf01db6c61b848ad0c563149b80a61e4b",
        "2209e49ca1d1b57ace28c00ef68c50ebd7bdb0264a083e0c238a0b60c9e82cef"),
    ("linkage_centralized", 2): (
        "08cd8fc755cb34f575a9dcfdfbb6ea29fdd62e7818910bc537fc9e1b602ae2c3",
        "f3c8d5bd38a9082cf05e6973041bafc2724a9c6b169bb3764cf21a48700266af"),
    ("linkage_tek", None): (
        "9b09761d96c6d92c38a2bd68f500cb4786a9358d36d34f4c4a02fa5371f4e076",
        "7dd60aca281d645ceb1603610b1da8de1c48041190b63b8656ed356515d287d1"),
    ("linkage_tek", 1): (
        "bed19a7fa6f80d95262cd5d2c10a570718f5682ae3969a7a4f0998a1f58d42af",
        "cb48d82938fd53611e09477197dbfb11d91f2c6545c9e1945cc3105439f649a5"),
    ("linkage_tek", 2): (
        "16a1158c8fede16792b67edc59e150b1eccbde89385cbccf93cedeed499b7fe6",
        "e4a4159aa01362e89c2212c1ca7172458b1b5de4abf5b64c5e0b4637c5d642b7"),
    ("linkage_dh", None): (
        "89e1648093075f34df22d40e25b617b08129415ee8f635052f70b82fa465e433",
        "be8b44fd72f42dc5a52053eb29f9f7e9e872ffd41d05007b2b77bcd7a226f7d4"),
    ("linkage_dh", 1): (
        "2941602a4b0c974bcde05fd5d7754b20d66fd8b402a22f4c9d3c892ad7caf852",
        "b2ade0aea5b94d28f2c0bdb298916bbc70bf29015eab916432c9849d9d69f49f"),
    ("linkage_dh", 2): (
        "7d7d291d90c25ba751dd205e9ffa188d890cc907d9af802e63519b9bcbc16b73",
        "8b1f6f60db4881f66a74e6ccbd2411b610d60f612a32a861c4a672ae27125bc6"),
    ("social_graph", None): (
        "19a0a9577b3d7b70cd0c7856e3a498724a41e7aaeae6c79e65b0e3401ad21778",
        "0d2ac8bfc7b3710b460f0ddda0dd2e8ea91d77851d1d7c22e168f9d70d3fef4a"),
    ("social_graph", 1): (
        "5dc949be9d9d9fcc33fe57ca25ee7aa01d1fe6c095f79f820969da932148d01c",
        "3af8a3851e65ff8b9e419cf9588fa13a08594a177340bda3afa0722e7a20ab8a"),
    ("social_graph", 2): (
        "cac6b94c2b42e186bf01311f63641a737afab598fd9463c0f00fe7e695766e29",
        "e12390a66a51fe3968422ca6c540e9082ef334c49684277c480c3c406b436ff0"),
    ("superspreader", None): (
        "b9ada12ed62456429bf51898b3d146c1363105ecb3761b6e2f377c90c51a0571",
        "adf7356aa798350a690e4af15be5e3e928efe12e1467d8c3ff35a15eeec03966"),
    ("superspreader", 1): (
        "96606caa6234927c3c7c954477fc0314edf36857fb37d09ce95987f9d1d0e106",
        "b965a4d53734d144e9d6d80d4598421470b3b0ab15e80dca27ae19dcc8810bca"),
    ("superspreader", 2): (
        "e95d9baebb9aca3e071e38859fc18f5273fc8607070c620c9ae7168ce8bc00f5",
        "deef61b959de0b185ea398f77aefda2e8688388127a193e7762547a93cc2ff71"),
    ("time_travel", None): (
        "5e853a41771fd0bb8b783ec485b0b93631eb945ad5b39bedae274cfcd99210e6",
        "622891869ff6b1aeda5e9a0b54f098ee154e176923e43728730bc7b64f118dfd"),
    ("time_travel", 1): (
        "198eff6d38525ebe067f51559d78b683bdf99f69c0d1b0b6bc69572beffb980e",
        "6782e7261968d15885f7bfc018679354b9bc80b2bab86ae184a36a1e97c6bb96"),
    ("time_travel", 2): (
        "84b6729aa53758dc0892b355251a610ce8065d6a7f194ec8a7ff989027cda8ad",
        "10d6962ce334631f587fddc511e51cac94e72268f62ff9aee0aa0e70ec437f72"),
}


def test_golden_table_covers_the_suite():
    assert set(GOLDEN) == {(sid, seed) for sid in STANDARD_SUITE for seed in (None, 1, 2)}


@pytest.mark.parametrize("sid,seed", sorted(GOLDEN, key=lambda k: (k[0], k[1] or 0)))
def test_outputs_byte_identical(sid, seed, tmp_path):
    run_scenario(builtin_scenario(sid), seed=seed, out_dir=tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("metrics.json", "events.jsonl"))
    assert digests == GOLDEN[(sid, seed)]
