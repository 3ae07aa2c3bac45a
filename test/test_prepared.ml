(* Prepared-IR identity: [Elzar.prepare] on every registry workload at
   [Tiny], under each of the nine named builds ([Elzar.builds], the CLI's
   [-b] values), must print exactly the IR
   recorded in [expected].  The table pins the output of the optimizer,
   vectorizer and hardening passes, so a pass refactor that is meant to be
   output-preserving shows any drift here as one (workload, build) cell.
   Regenerate the table only in a change that means to alter pass output,
   and say so in CHANGES.md. *)

(* (workload, build, MD5 of Ir.Printer.modul_to_string of the prepared
   module) *)
let expected =
  [
    ("hist", "native", "7b729cf6500f2be515de93a02c9b3a95");
    ("hist", "novec", "6c5438fedca1f5ac9d698a947e912359");
    ("hist", "elzar", "f8b6d59e20d0ea33b1feef602ad42122");
    ("hist", "elzar-nochecks", "ca43ab556b9888d9925b2533da768807");
    ("hist", "elzar-floats", "a151f36d3669ee99263f6d15710cfacd");
    ("hist", "elzar-future", "a7ad843ed6e857b26d4f3db331529ef9");
    ("hist", "elzar-extended", "ab1415a35705509e305f369373a05764");
    ("hist", "elzar-reexec", "bfe0e711bd8f672297481e0b75077a83");
    ("hist", "swiftr", "5b7dda6290ad9dc12f84229b0bae1c99");
    ("km", "native", "c1d117d677bb3766dd2ee8fd8d6c430b");
    ("km", "novec", "e42d23d9aa32358195856bc3b4cd605a");
    ("km", "elzar", "2883bc278747c9dfa801907f93f5a7c9");
    ("km", "elzar-nochecks", "1d60103002a0aa83f24b1e1b7312ab8a");
    ("km", "elzar-floats", "f75c4b45f0e04d31006e60fe1fe60a4c");
    ("km", "elzar-future", "2c37cf85a9a4eb5d4cad8e3255587ed8");
    ("km", "elzar-extended", "077bf00d880eb1d3d6880cd62b16b623");
    ("km", "elzar-reexec", "ffc30b289c300c3993feb8adabb19540");
    ("km", "swiftr", "d4dce653c90c0173f35f728d4b9b2f71");
    ("linreg", "native", "28dbc8d903fac4acf41439f0b8f06fcb");
    ("linreg", "novec", "98e643b757fc3a044ee68ee600c3220d");
    ("linreg", "elzar", "c6e1dbcc15eb8ea8bb4aeace5ae8d48c");
    ("linreg", "elzar-nochecks", "0d76d8c291f63007801a3085932e5517");
    ("linreg", "elzar-floats", "f9ed70b0b1962aa6c58ee3879d587e64");
    ("linreg", "elzar-future", "15fce76fc9b2b331daee206171d7ec06");
    ("linreg", "elzar-extended", "bdfbf77a58fedc5e09102bd7f94fac05");
    ("linreg", "elzar-reexec", "4bb7997204e455fc7932dadf2797d3d3");
    ("linreg", "swiftr", "0be47f4fbeafc064f7f95aeac3533077");
    ("mmul", "native", "7b63432fc76763b6d4cbedde8daa242b");
    ("mmul", "novec", "3976d8e381591dca145b43081682e556");
    ("mmul", "elzar", "5ac4bc1c79c2e271b9d1412115a2d7b4");
    ("mmul", "elzar-nochecks", "b8fc2ba6355406b6af7ee63abf42547b");
    ("mmul", "elzar-floats", "066feeffb6fab0bc9d6a7020d599824e");
    ("mmul", "elzar-future", "631188aa958713438b0adcc21991b2c4");
    ("mmul", "elzar-extended", "71ed298c641cec160e4fcf0da309bd42");
    ("mmul", "elzar-reexec", "fcf8182ce2eab6029862bace65c93189");
    ("mmul", "swiftr", "0ebe34cd8f0a8c1afa73fa0931adce18");
    ("pca", "native", "d3e845aa4ec971a2ce8351cbc90b62fc");
    ("pca", "novec", "d4ceec5850a8593bdaa0335eaa5db07a");
    ("pca", "elzar", "ef4026a969b18cd9497805b3f3eac2f8");
    ("pca", "elzar-nochecks", "73ba6e9d35d63ea5d20893ca1703b077");
    ("pca", "elzar-floats", "07cc7fd675541309ef3f67b2e23ec339");
    ("pca", "elzar-future", "838ad109236513dcbdba83ffd7375ff6");
    ("pca", "elzar-extended", "4e12897467961715616c8b0d401cb13a");
    ("pca", "elzar-reexec", "03f2e82016cf4dff7d24ccb459fed23c");
    ("pca", "swiftr", "c67c83de076ef448e0f142d9a78ea2fa");
    ("smatch", "native", "9e090b5fd3612359c41531d02e5e0aef");
    ("smatch", "novec", "e0a003b9c7adc6814c945a39f8505d3f");
    ("smatch", "elzar", "73332b41972d3fbb3df080ea393bc7c8");
    ("smatch", "elzar-nochecks", "0905304e4ba76d145907956cd0533660");
    ("smatch", "elzar-floats", "bba05466eefb51a427eea291d6d932e0");
    ("smatch", "elzar-future", "4cf223e5429345367d6a2c203ea5c6ef");
    ("smatch", "elzar-extended", "dc17817ece8906fa1929152ce8747f0e");
    ("smatch", "elzar-reexec", "ddbf407e581aa3744955f0ef5cf42cb9");
    ("smatch", "swiftr", "836536f195d81cab028efd9a67f2cfab");
    ("wc", "native", "78b793cf68eeb5b602047e0f9bddce88");
    ("wc", "novec", "b940a5da9c7f3947eea5deb751b7a3eb");
    ("wc", "elzar", "fd4678b1e43abba765b4b6a30dd71b2c");
    ("wc", "elzar-nochecks", "ea51df1ce19ed7336387bbb5efe6894a");
    ("wc", "elzar-floats", "e5fe2b01891c76dfebce3b1f7f41e07d");
    ("wc", "elzar-future", "a9a3969080bd1527d36a1f73e73b4d1d");
    ("wc", "elzar-extended", "a56876b91f199b5f6ee38db1f35b56ff");
    ("wc", "elzar-reexec", "7c784b6d0e24fd6cbc0f21243726a9b1");
    ("wc", "swiftr", "700eb440845eba3461ea7aa2459124a7");
    ("black", "native", "281919312bf63e50cf9939e75d0206f3");
    ("black", "novec", "4e69ec9921d341b6e579d947893ab04d");
    ("black", "elzar", "21c74a7021343d44e9a3e9c12083c834");
    ("black", "elzar-nochecks", "9749791846bcd5544e17477e766c778e");
    ("black", "elzar-floats", "a6d502f0844018c80a14cf79f05df341");
    ("black", "elzar-future", "019e08e47984c0b419190a5b55b77019");
    ("black", "elzar-extended", "e46b36eb30dc3d65f7574aa47f1b80a4");
    ("black", "elzar-reexec", "d5588d1616712415e8c6389b4078cd18");
    ("black", "swiftr", "fc60b25bf066aba9dced314f44a782c2");
    ("dedup", "native", "f4784e21028f2d53ba43f856ca58d4bb");
    ("dedup", "novec", "1aec8ecf36fff0b4284e431312c12b3e");
    ("dedup", "elzar", "2733ba4793149df3863f3afec05942b8");
    ("dedup", "elzar-nochecks", "4e98f10cd2f4a702ea82d990205d7dc3");
    ("dedup", "elzar-floats", "b086165ae732d56f884b0f4f03d90ae1");
    ("dedup", "elzar-future", "d5afd29515131f61f3024ba0c3e12cd2");
    ("dedup", "elzar-extended", "4dcb0877603d1f37bdccced581ae1ca7");
    ("dedup", "elzar-reexec", "530eedc347723af0300662445f4de810");
    ("dedup", "swiftr", "a76fbaae0f96ff019486b643b8418553");
    ("ferret", "native", "ae7708c5e645dca8e7b1486cd8fd3ed1");
    ("ferret", "novec", "3522176f07f0904e1cc47cc48dfee800");
    ("ferret", "elzar", "5d8089f2324042a5713388ff711e3eba");
    ("ferret", "elzar-nochecks", "e941641cb938400c5a1ad02e6f35546e");
    ("ferret", "elzar-floats", "536fd35f8a49fa2bc8456fc1d0a02646");
    ("ferret", "elzar-future", "82c59e8c6013395f238472a19d1c3fbc");
    ("ferret", "elzar-extended", "7b6bb81f780691857fe74b7a3af99330");
    ("ferret", "elzar-reexec", "834d9f3d10f62707442312311c82ce02");
    ("ferret", "swiftr", "5f2c0c39852bffecde219a5cfc053261");
    ("fluid", "native", "057d51048859da09fc0d9f3c3e3fe18b");
    ("fluid", "novec", "684cb8170bb5c758c35f1d6f59836087");
    ("fluid", "elzar", "e9f0b4425d8226a8ae95ab42c0c4c064");
    ("fluid", "elzar-nochecks", "83029c4851fbb7cdae90fb1a1621e834");
    ("fluid", "elzar-floats", "a474a0e5ce1a74813603aaf869394ed7");
    ("fluid", "elzar-future", "46b28d111808b07704ce9ade0874198d");
    ("fluid", "elzar-extended", "0f4a244dcf64f65d3ec1e7344f4796fc");
    ("fluid", "elzar-reexec", "3b9f71c39b2cd4fce95fcfd2a50f3258");
    ("fluid", "swiftr", "78b74b9c0cc441f8a825baf564d20887");
    ("scluster", "native", "8be75951d507f0597969281fc694fa7c");
    ("scluster", "novec", "462f9ac27d6b3e266edef2ffcd8f2c41");
    ("scluster", "elzar", "31990697daccc0517860ab3708f61f85");
    ("scluster", "elzar-nochecks", "72a8874addc28f97916e22f63f726354");
    ("scluster", "elzar-floats", "05e79b4cbd15ca7138b5a8bc50d05132");
    ("scluster", "elzar-future", "cb23b0277665072f6b3d085d1968fa4d");
    ("scluster", "elzar-extended", "338215166091743963f1a3ef8a4a3ed1");
    ("scluster", "elzar-reexec", "35979c4ebcf9ee3e9ab0a75c5a65fc73");
    ("scluster", "swiftr", "48308e0135b25514e0cfed6cba520c64");
    ("swap", "native", "45871f407d941a9d8eb99bafa2d9b77d");
    ("swap", "novec", "c2b69e52d4efb62e487e4e05333951a3");
    ("swap", "elzar", "1d1a57c9b337548005ce35db95216c4f");
    ("swap", "elzar-nochecks", "5a053f77aabb35272d0d466a0b86c523");
    ("swap", "elzar-floats", "3adab41119b4436575f4fb409782a63b");
    ("swap", "elzar-future", "a4ffe76d89acd9d316cbf4808b46c6b4");
    ("swap", "elzar-extended", "92157408efc0e83c647cfd73e607e4a9");
    ("swap", "elzar-reexec", "5e66a7ae00596f439ea497c150f1129c");
    ("swap", "swiftr", "1789e9e544a6994633efbbdefc3640d4");
    ("x264", "native", "9e947f352c2d306b83d7037c955deb18");
    ("x264", "novec", "ed6ecd33b852bc57f3fd4277216b89a1");
    ("x264", "elzar", "7060363546de55736e8d89330306c8a5");
    ("x264", "elzar-nochecks", "78cea675daa1134846f8e6f6fe9a7048");
    ("x264", "elzar-floats", "b1dc08f48eeac61b97cec8cdeb8f5039");
    ("x264", "elzar-future", "3213708c3c8afbce1a5d90c7beabe4c9");
    ("x264", "elzar-extended", "3f60759011f46fef17b6730b0ac2f791");
    ("x264", "elzar-reexec", "f69716b3bbe230bfd92414915ebabc76");
    ("x264", "swiftr", "32e1e099b5d17df5c4383e430c28869a");
  ]

let test_digests () =
  let got =
    List.concat_map
      (fun (w : Workloads.Workload.t) ->
        let m = w.build Workloads.Workload.Tiny in
        List.map
          (fun (bn, b) ->
            let p = Elzar.prepare b m in
            (w.name, bn, Digest.to_hex (Digest.string (Ir.Printer.modul_to_string p))))
          Elzar.builds)
      Workloads.Registry.all
  in
  Alcotest.(check int) "one cell per (workload, build)" (List.length expected) (List.length got);
  List.iter2
    (fun (w, b, want) (w', b', have) ->
      Alcotest.(check (pair string string)) "cell order" (w, b) (w', b');
      Alcotest.(check string) (Printf.sprintf "%s under -b %s" w b) want have)
    expected got

(* Each named build has one name, and [Elzar.build_name] gives it back, so
   what a report records is what [-b] took. *)
let test_build_names () =
  let names = List.map fst Elzar.builds in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (name, b) -> Alcotest.(check string) "build_name" name (Elzar.build_name b))
    Elzar.builds

let tests =
  [
    Alcotest.test_case "prepared IR matches the recorded digests" `Quick test_digests;
    Alcotest.test_case "build names are unique and round-trip" `Quick test_build_names;
  ]
