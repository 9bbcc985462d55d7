"""Bad input at the HTTP and CLI boundaries gives a named error."""

import random
import urllib.error
import urllib.request

import pytest

from restcipher import ResourceClient, ScenarioConfig, parse_xml, serve
from restcipher.cli import main
from restcipher.restkit import _Provider

from conftest import K1_TEXT, XML1

#: a full-printable arrangement, so every generated key encodes XML1
SERVER_BOUNDS = {"symbol_type": (63, 63)}


def _post_bytes(url: str, data: bytes) -> tuple:
    """(status, body) of a POST that the server refuses."""
    request = urllib.request.Request(url, data=data, method="POST",
                                     headers={"Content-Type": "text/plain"})
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    with info.value as response:
        return response.code, response.read().decode("ascii")


def test_non_ascii_post_to_the_resource_server_is_a_bad_request():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        status, body = _post_bytes(f"{server.url}/peer", "Get kéy".encode("utf-8"))
        assert status == 400
        assert body.startswith("error: BadRequest: ")
        client = ResourceClient(server.url, "peer")
        client.exchange_key()
        assert client.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()


def test_overlong_access_ordinal_is_a_malformed_message():
    server = serve(XML1, rng=random.Random(3), bounds=SERVER_BOUNDS)
    try:
        client = ResourceClient(server.url, "peer")
        client.exchange_key()
        status, body = _post_bytes(client.url, b"1" * 5000 + b", 04 0")
        assert status == 400
        assert body.startswith("error: MalformedMessage: ")
        assert client.fetch()[1] == parse_xml(XML1)
    finally:
        server.close()


def test_non_ascii_post_to_a_scenario_provider_is_a_bad_request():
    config = ScenarioConfig()
    provider = _Provider("SP1", ("K1", config.keys["K1"]),
                         ("K3", config.keys["K3"]), config).start()
    try:
        status, body = _post_bytes(f"{provider.url}/process", "04 é 0".encode("utf-8"))
        assert status == 400
        assert body.startswith("error: BadRequest: ")
    finally:
        provider.close()


@pytest.mark.parametrize("rows", [
    "tag\troot",                    # too few fields
    "tag\troot\t4\textra",          # too many
    "tag\troot\tfour",              # code is no integer
    "tag\troot\t0",                 # codes are positive
    "tag\troot\t4\ntag\tname\t4",   # code taken twice
])
def test_malformed_state_line_is_a_named_error(tmp_path, capsys, rows):
    state = tmp_path / "session.state"
    state.write_text(f"{K1_TEXT}\n{rows}\n", encoding="utf-8")
    assert main(["tables", "--state", str(state)]) == 1
    assert capsys.readouterr().err.startswith("error: Malformed: ")


def test_well_formed_state_file_loads(tmp_path, capsys):
    state = tmp_path / "session.state"
    state.write_text(f"{K1_TEXT}\ntag\troot\t4\n", encoding="utf-8")
    assert main(["tables", "--state", str(state)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "tag root 4"
