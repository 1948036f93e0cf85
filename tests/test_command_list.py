"""The byte-identity command list of ``tests/byte_identity``: it parses,
each command is one the command line accepts, and every file it names is
beside the list or in the corpus."""

from byte_identity.compare import CORPUS, HERE, input_files, read_commands
from monocert.cli import _build_parser


def test_command_list_parses_and_its_files_exist():
    commands = read_commands()
    assert len(commands) > 100
    parser = _build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.outdir == "."   # the run directory
        for name in input_files(argv):
            assert (HERE / name).is_file() or (CORPUS / name).is_file(), name
    names = {name for argv in commands for name in input_files(argv)}
    # every extra file is used
    assert {p.name for p in HERE.glob("*.sys")} <= names
